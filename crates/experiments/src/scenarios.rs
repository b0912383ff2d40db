//! The scenario registry: named `(design × noise × decoder × n-grid)`
//! configurations runnable end-to-end from the `repro` binary.
//!
//! A [`Scenario`] bundles everything needed to reproduce one headline
//! number: which [`DesignSpec`] samples the pooling graph, which noise
//! model corrupts the measurements, which decoder reconstructs, and the
//! population grid to sweep. `repro scenarios list` prints the catalog,
//! `repro scenarios run <name>` executes one scenario and writes its CSV —
//! the README's scenario table is generated from this registry (pinned by
//! the `readme_catalog` test), so docs and code cannot drift apart.
//!
//! Five measurement modes ([`Measurement`]):
//!
//! * [`Measurement::RequiredQueries`] — the paper's *required number of
//!   queries* via the incremental simulation (Section V), exactly like
//!   Figures 2–5 (greedy decoder only).
//! * [`Measurement::SuccessRate`] — exact-recovery rate at the Theorem-1
//!   budget: for each `n`, `trials` runs are sampled at `m = m*(n)` (the
//!   theorem's sufficient query count, floored at 200) and decoded
//!   batch-style.
//! * [`Measurement::Overlap`] — mean overlap at the same budget, for
//!   configurations where exact recovery is not the right yardstick (the
//!   spatially-coupled design breaks the exchangeability global top-`k`
//!   rules rely on; the honest number is how much overlap survives).
//! * [`Measurement::WorkloadOverlap`] — prior-blind vs prior-aware
//!   overlap on a structured population ([`WorkloadSpec`]) at a *scarce*
//!   query budget (an eighth of the default): the regime where the
//!   population prior is worth queries.
//! * [`Measurement::Tracking`] — per-epoch overlap on the temporal SIR
//!   workload: the streaming greedy tracker re-decodes a drifting truth
//!   (greedy decoder), or the full distributed protocol runs once per
//!   epoch (distributed decoders).

use crate::figures::{FigureReport, RunOptions};
use crate::output::table;
use crate::sweep::{self, SweepCell};
use crate::{mix_seed, runner, Mode};
use npd_amp::matrix_amp::run_matrix_amp_tracking;
use npd_amp::{prepare_categorical, AmpDecoder, MatrixAmpConfig};
use npd_core::distributed::{self, SelectionStrategy};
use npd_core::{
    exact_recovery, label_accuracy, overlap, CategoricalInstance, Decoder, DesignSpec, Estimate,
    GreedyDecoder, Instance, NoiseModel, PoolingDesign, Regime, TwoStepDecoder,
};
use npd_decoders::BpDecoder;
use npd_netsim::{FaultConfig, NodeFaultPlan};
use npd_workloads::{track_greedy, track_protocol, PopulationModel, TrackingConfig, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The reconstruction algorithm a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderKind {
    /// Algorithm 1 (noisy maximum neighborhood), measured incrementally.
    Greedy,
    /// Greedy plus one residual-refinement pass.
    TwoStep,
    /// Approximate message passing.
    Amp,
    /// Gaussian-relaxed belief propagation.
    Bp,
    /// Matrix-AMP over the categorical (d-ary) hidden state, with the
    /// Bayes simplex denoiser.
    MatrixAmp,
    /// The full distributed protocol on the network simulator, with the
    /// given phase-II selection strategy.
    Distributed(SelectionStrategy),
}

impl DecoderKind {
    /// Stable name used in reports and the README catalog.
    pub fn name(&self) -> &'static str {
        match self {
            DecoderKind::Greedy => "greedy",
            DecoderKind::TwoStep => "two-step",
            DecoderKind::Amp => "amp",
            DecoderKind::Bp => "bp",
            DecoderKind::MatrixAmp => "matrix-amp",
            DecoderKind::Distributed(SelectionStrategy::BatcherSort) => "protocol/batcher",
            DecoderKind::Distributed(SelectionStrategy::GossipThreshold { .. }) => {
                "protocol/gossip"
            }
        }
    }

    /// Builds the decoder (batch scenarios only).
    fn build(&self) -> Box<dyn Decoder> {
        match self {
            DecoderKind::Greedy => Box::new(GreedyDecoder::new()),
            DecoderKind::TwoStep => Box::new(TwoStepDecoder::new()),
            DecoderKind::Amp => Box::new(AmpDecoder::default()),
            DecoderKind::Bp => Box::new(BpDecoder::default()),
            DecoderKind::MatrixAmp => {
                unreachable!("matrix-AMP scenarios run through Measurement::Categorical")
            }
            DecoderKind::Distributed(_) => {
                unreachable!("distributed scenarios run through Measurement::ProtocolCost")
            }
        }
    }
}

/// Agent-level chaos injected into a protocol scenario.
///
/// The spec is the *recipe*; the per-trial [`NodeFaultPlan`] is built from
/// it with a trial-salted seed, so fault realizations are independent
/// across trials yet every trial replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Fraction of network nodes that fail-stop crash.
    pub crash_frac: f64,
    /// Inclusive round window the crash round is drawn from.
    pub crash_window: (u64, u64),
    /// Crashed nodes rejoin (state wiped) this many rounds later;
    /// `None` means crashes are permanent.
    pub restart_after: Option<u64>,
    /// Fraction of nodes that corrupt their outgoing payloads.
    pub corrupt_frac: f64,
    /// Per-message garbling probability for corruptor nodes.
    pub corrupt_prob: f64,
    /// Base fault seed (xor-ed with the trial seed).
    pub seed: u64,
}

impl ChaosSpec {
    /// Builds the concrete fault plan for one trial.
    fn plan(&self, salt: u64) -> NodeFaultPlan {
        let mut plan = NodeFaultPlan::new(self.seed ^ salt)
            .with_crashes(self.crash_frac, self.crash_window)
            .expect("registry chaos fractions are valid")
            .with_corruption(self.corrupt_frac, self.corrupt_prob)
            .expect("registry chaos fractions are valid");
        if let Some(after) = self.restart_after {
            plan = plan.with_restarts(after);
        }
        plan
    }
}

/// What a scenario measures per grid point (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measurement {
    /// Median required queries (incremental greedy simulation).
    RequiredQueries,
    /// Exact-recovery rate at the Theorem-1 budget.
    SuccessRate,
    /// Mean overlap at the Theorem-1 budget.
    Overlap,
    /// End-to-end distributed-protocol cost at the Theorem-1 budget:
    /// rounds and messages (total and per phase), adaptive probes, stale
    /// arrivals, missing assignments, and the recovery rate — on a
    /// power-of-two `n`-grid, optionally under fault injection.
    ProtocolCost,
    /// Prior-blind vs prior-aware overlap on a structured population at a
    /// scarce query budget (workload scenarios).
    WorkloadOverlap,
    /// Per-epoch tracking overlap on the temporal SIR workload.
    Tracking,
    /// Categorical (d-ary) reconstruction with matrix-AMP on a
    /// multi-strain population: per-agent label accuracy, strain recall on
    /// the affected sub-population, and the decoder's final per-iteration
    /// MSE.
    Categorical,
}

/// One named, fully specified experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Unique CLI name (`repro scenarios run <name>`).
    pub name: &'static str,
    /// One-line description for `scenarios list` and the README catalog.
    pub summary: &'static str,
    /// Pooling design.
    pub design: DesignSpec,
    /// Noise model.
    pub noise: NoiseModel,
    /// Decoder.
    pub decoder: DecoderKind,
    /// What to measure (required queries, success rate, overlap, or
    /// protocol cost).
    pub measurement: Measurement,
    /// Message faults injected into protocol scenarios (`None` elsewhere
    /// and for fault-free protocol runs).
    pub faults: Option<FaultConfig>,
    /// Agent-level chaos — crashes, restarts, payload corruption —
    /// injected into protocol scenarios (`None` elsewhere). Corrupting
    /// specs also switch the protocol's winsorized fold on.
    pub chaos: Option<ChaosSpec>,
    /// Population model (`None` means the paper's uniform `k`-subset,
    /// sampled by [`Instance::sample`] itself). Workload scenarios
    /// ([`Measurement::WorkloadOverlap`], [`Measurement::Tracking`]) carry
    /// `Some`.
    pub workload: Option<WorkloadSpec>,
    /// Sparsity exponent θ (`k = n^θ`).
    pub theta: f64,
    /// Query size as a divisor of `n` (`Γ = n / gamma_div`).
    pub gamma_div: usize,
    /// Largest grid exponent in quick mode: `n` up to `10^max_exp10`, or
    /// up to `2^max_exp10` for [`Measurement::ProtocolCost`] scenarios
    /// (the protocol grids are powers of two).
    pub quick_max_exp10: u32,
    /// Largest grid exponent with `--full`.
    pub full_max_exp10: u32,
}

impl Scenario {
    /// The scenario's n-grid for the given mode.
    pub fn grid(&self, mode: Mode) -> Vec<usize> {
        let max_exp = match mode {
            Mode::Quick => self.quick_max_exp10,
            Mode::Full => self.full_max_exp10,
        };
        let on_protocol_grid = self.measurement == Measurement::ProtocolCost
            || (self.measurement == Measurement::Tracking
                && matches!(self.decoder, DecoderKind::Distributed(_)));
        if on_protocol_grid {
            // Power-of-two grid 2^8, 2^10, …: the natural sizes for the
            // sorting network and the butterfly aggregation alike.
            return (8..=max_exp).step_by(2).map(|e| 1usize << e).collect();
        }
        sweep::n_grid(max_exp)
    }

    /// The command reproducing this scenario (shown in the README catalog).
    pub fn command(&self) -> String {
        format!(
            "cargo run --release -p npd-experiments --bin repro -- scenarios run {}",
            self.name
        )
    }
}

/// The registry: every named scenario, in presentation order.
///
/// The first entries reproduce the paper's own operating points; the rest
/// exercise the structured designs and the wider decoder field on the same
/// grids so query counts are directly comparable.
pub fn registry() -> Vec<Scenario> {
    let base = |name, summary, design, noise, decoder: DecoderKind| Scenario {
        name,
        summary,
        design,
        noise,
        decoder,
        measurement: if decoder == DecoderKind::Greedy {
            Measurement::RequiredQueries
        } else {
            Measurement::SuccessRate
        },
        faults: None,
        chaos: None,
        workload: None,
        theta: crate::figures::THETA,
        gamma_div: 2,
        quick_max_exp10: 3,
        full_max_exp10: 5,
    };
    // Workload scenarios: structured populations at θ = 0.5 (enough
    // one-agents for block/cluster structure to exist at quick-grid sizes)
    // measured where the prior matters — a scarce query budget — plus the
    // temporal SIR tracking pair.
    let workload = |name, summary, spec, noise| Scenario {
        measurement: Measurement::WorkloadOverlap,
        workload: Some(spec),
        theta: 0.5,
        full_max_exp10: 4,
        ..base(name, summary, DesignSpec::Iid, noise, DecoderKind::Greedy)
    };
    // Distributed-protocol scenarios: strategy × faults on power-of-two
    // grids (see `Measurement::ProtocolCost`). The topology is the
    // protocol's own (complete: query → member broadcast plus the agent
    // id line); the fault axis is what varies.
    let protocol = |name, summary, strategy, faults, full_exp: u32| Scenario {
        measurement: Measurement::ProtocolCost,
        faults,
        quick_max_exp10: 10,
        full_max_exp10: full_exp,
        ..base(
            name,
            summary,
            DesignSpec::Iid,
            NoiseModel::z_channel(0.1),
            DecoderKind::Distributed(strategy),
        )
    };
    // Chaos scenarios: the protocol grid under *agent-level* faults —
    // fail-stop crashes (optionally restarting with wiped state) and
    // payload corruptors — measuring graceful degradation: achieved
    // quorum and surviving overlap instead of all-or-nothing recovery.
    let chaos = |name, summary, strategy, spec: ChaosSpec| Scenario {
        chaos: Some(spec),
        full_max_exp10: 12,
        ..protocol(name, summary, strategy, None, 12)
    };
    // Categorical scenarios: a multi-strain population decoded by
    // matrix-AMP. θ = 0.5 so the quick grid has enough affected agents to
    // split across strains.
    let categorical = |name, summary, strains, noise| Scenario {
        measurement: Measurement::Categorical,
        workload: Some(WorkloadSpec::MultiStrain {
            strains,
            theta: 0.5,
        }),
        theta: 0.5,
        quick_max_exp10: 3,
        full_max_exp10: 4,
        ..base(
            name,
            summary,
            DesignSpec::Iid,
            noise,
            DecoderKind::MatrixAmp,
        )
    };
    vec![
        base(
            "paper-z01",
            "the paper's Figure-2 operating point: i.i.d. design, Z-channel p=0.1",
            DesignSpec::Iid,
            NoiseModel::z_channel(0.1),
            DecoderKind::Greedy,
        ),
        base(
            "paper-gauss",
            "the paper's Figure-3 operating point: i.i.d. design, query noise λ=1",
            DesignSpec::Iid,
            NoiseModel::gaussian(1.0),
            DecoderKind::Greedy,
        ),
        base(
            "subset-z01",
            "uniform Γ-subset queries: the no-duplicate-slots ablation",
            DesignSpec::GammaSubset,
            NoiseModel::z_channel(0.1),
            DecoderKind::Greedy,
        ),
        base(
            "doubly-regular-z01",
            "doubly regular allocation (anytime deck analogue) under Z-channel noise",
            DesignSpec::DoublyRegular,
            NoiseModel::z_channel(0.1),
            DecoderKind::Greedy,
        ),
        Scenario {
            gamma_div: 8,
            ..base(
                "sparse-column-z01",
                "constant-column design at Γ=n/8 via its anytime Bernoulli-pool \
                 analogue (the θ<1/2 regime's design)",
                DesignSpec::SparseColumn,
                NoiseModel::z_channel(0.1),
                DecoderKind::Greedy,
            )
        },
        Scenario {
            measurement: Measurement::Overlap,
            quick_max_exp10: 3,
            full_max_exp10: 4,
            ..base(
                "coupled-z01",
                "banded design vs the global greedy rule: banding breaks exchangeability, \
                 so the honest yardstick is surviving overlap",
                DesignSpec::spatially_coupled(),
                NoiseModel::z_channel(0.1),
                DecoderKind::Greedy,
            )
        },
        Scenario {
            quick_max_exp10: 3,
            full_max_exp10: 4,
            ..base(
                "amp-z01",
                "AMP at the Theorem-1 budget on the paper's design",
                DesignSpec::Iid,
                NoiseModel::z_channel(0.1),
                DecoderKind::Amp,
            )
        },
        Scenario {
            measurement: Measurement::Overlap,
            quick_max_exp10: 3,
            full_max_exp10: 4,
            ..base(
                "amp-coupled",
                "vanilla AMP on a weakly coupled banded design: the gap a block-aware \
                 SC-AMP would have to close",
                DesignSpec::SpatiallyCoupled { bands: 3 },
                NoiseModel::z_channel(0.1),
                DecoderKind::Amp,
            )
        },
        Scenario {
            quick_max_exp10: 3,
            full_max_exp10: 4,
            ..base(
                "twostep-channel",
                "two-step residual refinement under the general channel p=q=0.1",
                DesignSpec::Iid,
                NoiseModel::channel(0.1, 0.1),
                DecoderKind::TwoStep,
            )
        },
        Scenario {
            quick_max_exp10: 3,
            full_max_exp10: 4,
            ..base(
                "bp-z01",
                "belief propagation at the Theorem-1 budget on the paper's design",
                DesignSpec::Iid,
                NoiseModel::z_channel(0.1),
                DecoderKind::Bp,
            )
        },
        protocol(
            "distributed-batcher",
            "the paper's full protocol: Batcher sorting network, fault-free network",
            SelectionStrategy::BatcherSort,
            None,
            14,
        ),
        protocol(
            "distributed-gossip",
            "phase II via the adaptive gossip threshold search: no sorting network, \
             agents decide locally",
            SelectionStrategy::gossip(),
            None,
            16,
        ),
        protocol(
            "distributed-batcher-delay",
            "Batcher protocol under bounded message delay (max 6 rounds): stale tokens \
             filtered by layer, budget stretched by the delay bound",
            SelectionStrategy::BatcherSort,
            Some(FaultConfig::new(0.0, 0.0, 71).unwrap().with_max_delay(6)),
            12,
        ),
        protocol(
            "distributed-gossip-faults",
            "gossip protocol under 1% loss + duplication + delay: out-of-phase arrivals \
             counted and ignored, every agent still decides",
            SelectionStrategy::gossip(),
            Some(FaultConfig::new(0.01, 0.05, 72).unwrap().with_max_delay(2)),
            12,
        ),
        chaos(
            "chaos-crash-batcher",
            "10% of nodes fail-stop mid-protocol: the sorting network degrades to \
             the surviving quorum instead of hanging to the round budget",
            SelectionStrategy::BatcherSort,
            ChaosSpec {
                crash_frac: 0.10,
                crash_window: (1, 8),
                restart_after: None,
                corrupt_frac: 0.0,
                corrupt_prob: 0.0,
                seed: 81,
            },
        ),
        chaos(
            "chaos-restart-gossip",
            "20% of nodes crash and rejoin three rounds later with wiped state: \
             restarted agents turn passive, the quorum reports who decided",
            SelectionStrategy::gossip(),
            ChaosSpec {
                crash_frac: 0.20,
                crash_window: (1, 6),
                restart_after: Some(3),
                corrupt_frac: 0.0,
                corrupt_prob: 0.0,
                seed: 82,
            },
        ),
        chaos(
            "chaos-corrupt-gossip",
            "5% of nodes garble every payload they send: the winsorized fold \
             bounds their leverage and overlap degrades smoothly",
            SelectionStrategy::gossip(),
            ChaosSpec {
                crash_frac: 0.0,
                crash_window: (0, 0),
                restart_after: None,
                corrupt_frac: 0.05,
                corrupt_prob: 1.0,
                seed: 83,
            },
        ),
        chaos(
            "chaos-full-batcher",
            "10% crashes plus 5% corruptors at once: both fault axes together, \
             protocol still completes and reports its achieved quorum",
            SelectionStrategy::BatcherSort,
            ChaosSpec {
                crash_frac: 0.10,
                crash_window: (1, 8),
                restart_after: None,
                corrupt_frac: 0.05,
                corrupt_prob: 1.0,
                seed: 84,
            },
        ),
        categorical(
            "categorical-z01",
            "binary pooled data rerun through the categorical layer (d=2, one strain): \
             matrix-AMP under Z-channel noise on the bit-compatible d-ary pipeline",
            1,
            NoiseModel::z_channel(0.1),
        ),
        categorical(
            "categorical-strains",
            "three-strain surveillance (d=4): matrix-AMP with the Bayes simplex denoiser \
             under query noise, per-iteration MSE tracked by matrix state evolution",
            3,
            NoiseModel::gaussian(1.0),
        ),
        workload(
            "workload-community",
            "SBM-style community blocks (2 hot of 8): prior-aware posterior ranking vs \
             the prior-blind rule at a scarce query budget",
            WorkloadSpec::Community { theta: 0.5 },
            NoiseModel::z_channel(0.1),
        ),
        workload(
            "workload-households",
            "household-burst infections (clusters of 4, secondary attack 0.7): correlated \
             ones under the exchangeable pooling design",
            WorkloadSpec::Households { theta: 0.5 },
            NoiseModel::z_channel(0.1),
        ),
        workload(
            "workload-hubs",
            "heavy-tailed Zipf hub marginals (heavy-hitter detection): a strong prior on \
             few agents, a weak one on the tail",
            WorkloadSpec::Hubs { theta: 0.5 },
            NoiseModel::z_channel(0.1),
        ),
        Scenario {
            measurement: Measurement::Tracking,
            ..workload(
                "workload-sir-track",
                "temporal SIR drift, streaming greedy tracker: stale pooled evidence \
                 accumulates across epochs and the per-epoch overlap measures its cost",
                WorkloadSpec::Sir,
                NoiseModel::z_channel(0.1),
            )
        },
        Scenario {
            measurement: Measurement::Tracking,
            decoder: DecoderKind::Distributed(SelectionStrategy::gossip()),
            quick_max_exp10: 10,
            full_max_exp10: 12,
            ..workload(
                "workload-sir-protocol",
                "temporal SIR drift, full distributed protocol re-run each epoch on fresh \
                 pools: tracking overlap plus per-epoch communication cost",
                WorkloadSpec::Sir,
                NoiseModel::z_channel(0.1),
            )
        },
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// The `scenarios list` rendering: one line per scenario.
pub fn list_rendered() -> String {
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.design.to_string(),
                workload_label(s),
                noise_label(&s.noise),
                s.decoder.name().to_string(),
                format!("n/{}", s.gamma_div),
                s.summary.to_string(),
            ]
        })
        .collect();
    format!(
        "Scenario registry — run one with `repro scenarios run <name>` \
         (or all with `repro scenarios run --all`)\n{}",
        table(
            &[
                "name",
                "design",
                "population",
                "noise",
                "decoder",
                "Γ",
                "summary"
            ],
            &rows
        )
    )
}

/// The README's scenario catalog, generated from the registry (the
/// `readme_catalog` test pins the README section to this output).
pub fn catalog_markdown() -> String {
    let mut out = String::from(
        "| scenario | design | population | noise | decoder | reproduce |\n\
         |---|---|---|---|---|---|\n",
    );
    for s in registry() {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | `{}` |\n",
            s.name,
            s.design,
            workload_label(&s),
            noise_label(&s.noise),
            s.decoder.name(),
            s.command()
        ));
    }
    out
}

/// Compact human label for a scenario's population model.
fn workload_label(s: &Scenario) -> String {
    match s.workload {
        None => "uniform".into(),
        Some(spec) => spec.to_string(),
    }
}

/// Compact human label for a noise model.
fn noise_label(noise: &NoiseModel) -> String {
    match *noise {
        NoiseModel::Noiseless => "noiseless".into(),
        NoiseModel::Channel { p, q: 0.0 } => format!("Z-channel p={p}"),
        NoiseModel::Channel { p, q } => format!("channel p={p} q={q}"),
        NoiseModel::Query { lambda } => format!("query noise λ={lambda}"),
    }
}

/// Runs a scenario, producing the same report shape as the figures.
pub fn run(scenario: &Scenario, opts: &RunOptions) -> FigureReport {
    match scenario.measurement {
        Measurement::RequiredQueries => run_required_queries(scenario, opts),
        Measurement::SuccessRate | Measurement::Overlap => run_batch(scenario, opts),
        Measurement::ProtocolCost => run_protocol_cost(scenario, opts),
        Measurement::WorkloadOverlap => run_workload_overlap(scenario, opts),
        Measurement::Tracking => run_tracking(scenario, opts),
        Measurement::Categorical => run_categorical(scenario, opts),
    }
}

/// Runs one *representative traced execution* of a scenario into `sink`
/// and returns a short label describing what was traced, plus, for
/// protocol scenarios, the outcome's accounting table (the engine's
/// [`npd_netsim::Metrics`] rows plus the protocol's stale messages,
/// probes, missing assignments, achieved quorum and restarted agents).
///
/// The normal scenario run ([`run`]) stays untraced — its pinned CSV
/// outputs are untouched — and a single extra execution at the
/// scenario's smallest grid point (trial-0 seed) is performed with
/// telemetry attached. The deterministic event stream this produces is
/// bit-identical across shard and thread counts (contract rule 11): the
/// CI determinism matrix compares the resulting `.jsonl` files with
/// `cmp`.
///
/// Dispatch mirrors the measurement kinds: distributed scenarios run the
/// full protocol through
/// [`distributed::run_protocol_chaos_traced`] (phase events, netsim
/// round spans), categorical scenarios run
/// [`npd_amp::matrix_amp::run_matrix_amp_traced`], and batch scenarios
/// attach the sink to the decoder's workspace (AMP iterations, BP
/// passes, greedy score margins).
///
/// # Panics
///
/// Panics if a distributed scenario exceeds its round budget — the same
/// condition the untraced run treats as fatal.
pub fn run_traced(
    scenario: &Scenario,
    opts: &RunOptions,
    sink: &npd_telemetry::TelemetrySink,
) -> (String, Option<String>) {
    use npd_amp::AmpWorkspace;
    use npd_core::{GreedyWorkspace, ScoreOptions};
    use npd_decoders::BpWorkspace;

    let n = scenario.grid(opts.mode)[0];
    let gamma = (n / scenario.gamma_div).max(1);
    let seed = mix_seed(
        0x5CE8_0000 ^ hash_name(scenario.name),
        (n as u64) << 8, // trial 0
    );

    if let DecoderKind::Distributed(strategy) = scenario.decoder {
        let m = (sweep::default_budget(n, scenario.theta, &scenario.noise) / 2).max(400);
        let instance = Instance::builder(n)
            .regime(Regime::sublinear(scenario.theta))
            .queries(m)
            .query_size(gamma)
            .noise(scenario.noise)
            .design(scenario.design)
            .build()
            .expect("registry scenarios are valid configurations");
        let run = instance.sample(&mut StdRng::seed_from_u64(seed));
        let faults = scenario.faults.map(|f| {
            FaultConfig::new(f.drop_prob(), f.dup_prob(), f.seed() ^ seed)
                .expect("probabilities already validated")
                .with_max_delay(f.max_delay())
        });
        let options = distributed::ProtocolOptions {
            strategy,
            faults,
            node_faults: scenario.chaos.map(|c| c.plan(seed)),
            winsorize: scenario.chaos.is_some_and(|c| c.corrupt_frac > 0.0),
            ..distributed::ProtocolOptions::default()
        };
        let outcome = distributed::run_protocol_chaos_traced(&run, options, sink)
            .expect("protocol terminates within its budget");
        let rows: Vec<Vec<String>> = outcome
            .metrics
            .as_rows()
            .chain([
                ("stale_messages", outcome.stale_messages),
                ("probes", u64::from(outcome.probes)),
                ("missing_assignments", outcome.missing_assignments as u64),
                ("achieved_quorum", outcome.achieved_quorum() as u64),
                ("restarted_agents", outcome.restarted_agents as u64),
            ])
            .map(|(name, value)| vec![name.to_string(), value.to_string()])
            .collect();
        let label = format!(
            "{} n={n} m={m} rounds={} messages={}",
            scenario.decoder.name(),
            outcome.rounds,
            outcome.metrics.messages_sent,
        );
        return (label, Some(table(&["outcome", "value"], &rows)));
    }

    if scenario.measurement == Measurement::Categorical {
        let model = scenario
            .workload
            .and_then(|spec| spec.multi_strain())
            .expect("Categorical scenarios use the multi-strain workload");
        let m = (sweep::default_budget(n, scenario.theta, &scenario.noise) / 4).max(200);
        let instance = CategoricalInstance::new(n, model.strain_counts(n), m)
            .and_then(|instance| instance.with_gamma(gamma))
            .and_then(|instance| instance.with_design(scenario.design))
            .expect("registry scenarios are valid configurations")
            .with_noise(scenario.noise);
        let run = instance.sample(&mut StdRng::seed_from_u64(seed));
        let prep = prepare_categorical(&run);
        let out = npd_amp::matrix_amp::run_matrix_amp_traced(
            &prep,
            &MatrixAmpConfig::default(),
            Some(run.ground_truth().labels()),
            sink,
        );
        let label = format!(
            "matrix-amp n={n} d={} m={m} iterations={}",
            instance.d(),
            out.iterations
        );
        return (label, None);
    }

    // Batch scenarios: one decode at the Theorem-1 budget with the sink
    // attached to the decoder's workspace.
    let m = (sweep::default_budget(n, scenario.theta, &scenario.noise) / 4).max(200);
    let instance = Instance::builder(n)
        .regime(Regime::sublinear(scenario.theta))
        .queries(m)
        .query_size(gamma)
        .noise(scenario.noise)
        .design(scenario.design)
        .build()
        .expect("registry scenarios are valid configurations");
    let run = instance.sample(&mut StdRng::seed_from_u64(seed));
    let label = match scenario.decoder {
        DecoderKind::Amp => {
            let mut ws = AmpWorkspace::new();
            ws.set_telemetry(sink.clone());
            let (_, out) = AmpDecoder::default().decode_with_trace_using(&run, &mut ws);
            format!("amp n={n} m={m} iterations={}", out.iterations)
        }
        DecoderKind::Bp => {
            let mut ws = BpWorkspace::new();
            ws.set_telemetry(sink.clone());
            let out = BpDecoder::default().solve_with(&run, &mut ws);
            format!("bp n={n} m={m} rounds={}", out.rounds)
        }
        // Greedy, two-step, and the workload scenarios all score through
        // the greedy engine; the traced quantity is its score margin.
        _ => {
            let mut ws = GreedyWorkspace::new();
            ws.set_telemetry(sink.clone());
            let scores = GreedyDecoder::new().scores_with(&run, ScoreOptions::default(), &mut ws);
            format!("greedy n={n} m={m} scored={}", scores.len())
        }
    };
    (label, None)
}

/// Categorical measurement: matrix-AMP label reconstruction on the
/// multi-strain workload at the Theorem-1 budget, per grid point. Reports
/// overall per-agent label accuracy, strain recall restricted to the
/// truly affected agents (the hard part — the background dominates the
/// overall number), and the decoder's final per-iteration MSE.
fn run_categorical(scenario: &Scenario, opts: &RunOptions) -> FigureReport {
    let spec = scenario
        .workload
        .expect("Categorical scenarios carry a workload");
    let model = spec
        .multi_strain()
        .expect("Categorical scenarios use the multi-strain workload");
    let trials = opts.resolve_trials(3, 10);
    let grid = scenario.grid(opts.mode);
    let config = MatrixAmpConfig::default();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &n in &grid {
        // The Theorem-1 sufficient count (default_budget is 4× it).
        let m = (sweep::default_budget(n, scenario.theta, &scenario.noise) / 4).max(200);
        let gamma = (n / scenario.gamma_div).max(1);
        let counts = model.strain_counts(n);
        let k_total: usize = counts.iter().sum();
        let instance = CategoricalInstance::new(n, counts, m)
            .and_then(|instance| instance.with_gamma(gamma))
            .and_then(|instance| instance.with_design(scenario.design))
            .expect("registry scenarios are valid configurations")
            .with_noise(scenario.noise);
        let d = instance.d();
        let seeds: Vec<u64> = (0..trials as u64)
            .map(|t| mix_seed(0x5CE7_0000 ^ hash_name(scenario.name), (n as u64) << 8 | t))
            .collect();
        let per_trial = runner::parallel_map(&seeds, opts.threads, |&seed| {
            let run = instance.sample(&mut StdRng::seed_from_u64(seed));
            let prep = prepare_categorical(&run);
            let out = run_matrix_amp_tracking(&prep, &config, Some(run.ground_truth().labels()));
            let truth = run.ground_truth();
            let accuracy = label_accuracy(&out.labels, truth);
            let affected: Vec<usize> = (0..truth.n()).filter(|&i| truth.label(i) != 0).collect();
            let recall = if affected.is_empty() {
                1.0
            } else {
                affected
                    .iter()
                    .filter(|&&i| out.labels[i] == truth.label(i))
                    .count() as f64
                    / affected.len() as f64
            };
            let final_mse = out.mse_trajectory.last().copied().unwrap_or(f64::NAN);
            (accuracy, recall, final_mse, out.iterations as f64)
        });
        let per = trials as f64;
        let accuracy = per_trial.iter().map(|t| t.0).sum::<f64>() / per;
        let recall = per_trial.iter().map(|t| t.1).sum::<f64>() / per;
        let final_mse = per_trial.iter().map(|t| t.2).sum::<f64>() / per;
        let iterations = per_trial.iter().map(|t| t.3).sum::<f64>() / per;
        rows.push(vec![
            n.to_string(),
            d.to_string(),
            k_total.to_string(),
            m.to_string(),
            format!("{accuracy:.3}"),
            format!("{recall:.2}"),
            format!("{final_mse:.4}"),
            format!("{iterations:.0}"),
        ]);
        csv_rows.push(vec![
            n.to_string(),
            d.to_string(),
            k_total.to_string(),
            gamma.to_string(),
            m.to_string(),
            format!("{accuracy:.4}"),
            format!("{recall:.3}"),
            format!("{final_mse:.6}"),
            format!("{iterations:.1}"),
            trials.to_string(),
        ]);
    }
    let rendered = format!(
        "Scenario {} — matrix-AMP categorical reconstruction ({} workload, {} design, \
         {} trials)\n{}",
        scenario.name,
        spec,
        scenario.design,
        trials,
        table(
            &[
                "n",
                "d",
                "k",
                "m",
                "accuracy",
                "recall",
                "final MSE",
                "iters"
            ],
            &rows
        )
    );
    FigureReport {
        name: format!("scenario-{}", scenario.name),
        rendered,
        csv_headers: vec![
            "n".into(),
            "d".into(),
            "k_total".into(),
            "gamma".into(),
            "m".into(),
            "label_accuracy".into(),
            "affected_recall".into(),
            "final_mse".into(),
            "iterations".into(),
            "trials".into(),
        ],
        csv_rows,
        notes: vec![scenario.summary.to_string()],
    }
}

/// The scarce query budget of the workload comparisons: an eighth of
/// [`sweep::default_budget`], floored at 120 — the regime where knowing
/// *where* the ones concentrate is worth queries.
pub(crate) fn scarce_budget(n: usize, theta: f64, noise: &NoiseModel) -> usize {
    (sweep::default_budget(n, theta, noise) / 8).max(120)
}

/// One prior-blind-vs-prior-aware workload trial: samples a truth from
/// `model`, pools and measures it under `(m, gamma, noise, design)`, and
/// decodes both rankings from a single score accumulation
/// ([`GreedyDecoder::scores_with_posterior`]). Returns
/// `(k, blind overlap, prior-aware overlap)`; a `k = 0` draw is trivially
/// right for both rules. Shared by the `workload-*` scenarios and the
/// `workloads` figure so the two report the same experiment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn workload_trial(
    model: &dyn PopulationModel,
    prior: &[f64],
    n: usize,
    m: usize,
    gamma: usize,
    noise: NoiseModel,
    design: DesignSpec,
    seed: u64,
) -> (usize, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth = model.sample(n, &mut rng);
    let k = truth.k();
    if k == 0 {
        return (0, 1.0, 1.0);
    }
    let instance = Instance::builder(n)
        .k(k)
        .queries(m)
        .query_size(gamma)
        .noise(noise)
        .design(design)
        .build()
        .expect("workload trial configurations are valid");
    let graph = design.sample(n, m, gamma, &mut rng);
    let results = graph.measure(&truth, &noise, &mut rng);
    let run = instance
        .assemble(truth, graph, results)
        .expect("assembled parts match the instance");
    let (scores, posterior) = GreedyDecoder::new().scores_with_posterior(&run, prior);
    let blind = Estimate::from_scores(scores, k);
    let aware = Estimate::from_scores(posterior, k);
    (
        k,
        overlap(&blind, run.ground_truth()),
        overlap(&aware, run.ground_truth()),
    )
}

/// Workload-overlap measurement: prior-blind vs prior-aware greedy overlap
/// on a structured population, at the scarce [`scarce_budget`].
fn run_workload_overlap(scenario: &Scenario, opts: &RunOptions) -> FigureReport {
    let spec = scenario
        .workload
        .expect("WorkloadOverlap scenarios carry a workload");
    let model = spec.model();
    let trials = opts.resolve_trials(5, 25);
    let grid = scenario.grid(opts.mode);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &n in &grid {
        let m = scarce_budget(n, scenario.theta, &scenario.noise);
        let gamma = (n / scenario.gamma_div).max(1);
        let prior = model.prior(n);
        let seeds: Vec<u64> = (0..trials as u64)
            .map(|t| mix_seed(0x5CE5_0000 ^ hash_name(scenario.name), (n as u64) << 8 | t))
            .collect();
        let per_trial = runner::parallel_map(&seeds, opts.threads, |&seed| {
            workload_trial(
                model.as_ref(),
                &prior,
                n,
                m,
                gamma,
                scenario.noise,
                scenario.design,
                seed,
            )
        });
        let mean_k = per_trial.iter().map(|(k, _, _)| *k as f64).sum::<f64>() / trials as f64;
        let blind = per_trial.iter().map(|(_, b, _)| b).sum::<f64>() / trials as f64;
        let aware = per_trial.iter().map(|(_, _, a)| a).sum::<f64>() / trials as f64;
        rows.push(vec![
            n.to_string(),
            format!("{mean_k:.1}"),
            m.to_string(),
            format!("{blind:.2}"),
            format!("{aware:.2}"),
        ]);
        csv_rows.push(vec![
            n.to_string(),
            format!("{mean_k:.2}"),
            gamma.to_string(),
            m.to_string(),
            format!("{blind:.3}"),
            format!("{aware:.3}"),
            trials.to_string(),
        ]);
    }
    let rendered = format!(
        "Scenario {} — prior-blind vs prior-aware overlap ({} workload, {} design, \
         scarce budget, {} trials)\n{}",
        scenario.name,
        spec,
        scenario.design,
        trials,
        table(&["n", "k̄", "m", "blind", "prior-aware"], &rows)
    );
    FigureReport {
        name: format!("scenario-{}", scenario.name),
        rendered,
        csv_headers: vec![
            "n".into(),
            "mean_k".into(),
            "gamma".into(),
            "m".into(),
            "overlap_blind".into(),
            "overlap_prior_aware".into(),
            "trials".into(),
        ],
        csv_rows,
        notes: vec![scenario.summary.to_string()],
    }
}

/// Number of epochs every tracking scenario simulates.
const TRACKING_EPOCHS: usize = 6;

/// Tracking measurement: the temporal SIR workload drifts over
/// [`TRACKING_EPOCHS`] epochs; one row per `(n, epoch)` reports the mean
/// tracking overlap (and, for distributed tracking, the per-epoch
/// communication cost).
fn run_tracking(scenario: &Scenario, opts: &RunOptions) -> FigureReport {
    let spec = scenario
        .workload
        .expect("Tracking scenarios carry a workload");
    let model = spec.sir().expect("Tracking scenarios use the SIR workload");
    let trials = opts.resolve_trials(3, 10);
    let grid = scenario.grid(opts.mode);
    let strategy = match scenario.decoder {
        DecoderKind::Distributed(s) => Some(s),
        _ => None,
    };

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &n in &grid {
        let cfg = TrackingConfig {
            gamma: (n / scenario.gamma_div).max(1),
            queries_per_epoch: (sweep::default_budget(n, scenario.theta, &scenario.noise) / 4)
                .max(200),
            epochs: TRACKING_EPOCHS,
            noise: scenario.noise,
            design: scenario.design,
        };
        let seeds: Vec<u64> = (0..trials as u64)
            .map(|t| mix_seed(0x5CE6_0000 ^ hash_name(scenario.name), (n as u64) << 8 | t))
            .collect();
        let per_trial = runner::parallel_map(&seeds, opts.threads, |&seed| match strategy {
            None => track_greedy(&model, n, &cfg, seed),
            Some(s) => track_protocol(&model, n, &cfg, s, seed),
        });
        for epoch in 0..cfg.epochs {
            let at = |f: &dyn Fn(&npd_workloads::EpochReport) -> f64| -> f64 {
                per_trial.iter().map(|r| f(&r[epoch])).sum::<f64>() / trials as f64
            };
            let k = at(&|r| r.k as f64);
            let ov = at(&|r| r.overlap);
            let exact = at(&|r| f64::from(r.exact));
            let messages = at(&|r| r.messages as f64);
            rows.push(vec![
                n.to_string(),
                epoch.to_string(),
                format!("{k:.1}"),
                format!("{ov:.2}"),
                format!("{exact:.2}"),
                format!("{messages:.0}"),
            ]);
            csv_rows.push(vec![
                n.to_string(),
                epoch.to_string(),
                format!("{k:.2}"),
                cfg.queries_per_epoch.to_string(),
                format!("{ov:.3}"),
                format!("{exact:.3}"),
                format!("{messages:.1}"),
                trials.to_string(),
            ]);
        }
    }
    let mode_label = match strategy {
        None => "streaming greedy re-decode".to_string(),
        Some(s) => format!("distributed protocol per epoch, {s} selection"),
    };
    let rendered = format!(
        "Scenario {} — SIR tracking overlap over {TRACKING_EPOCHS} epochs ({mode_label}, \
         {} trials)\n{}",
        scenario.name,
        trials,
        table(&["n", "epoch", "k̄", "overlap", "exact", "messages"], &rows)
    );
    FigureReport {
        name: format!("scenario-{}", scenario.name),
        rendered,
        csv_headers: vec![
            "n".into(),
            "epoch".into(),
            "mean_k".into(),
            "queries_per_epoch".into(),
            "mean_overlap".into(),
            "exact_rate".into(),
            "mean_messages".into(),
            "trials".into(),
        ],
        csv_rows,
        notes: vec![scenario.summary.to_string()],
    }
}

/// Protocol-cost measurement: one full distributed-protocol execution per
/// `(n, trial)` at the Theorem-1 query budget, reporting rounds, messages
/// (total and phase II), adaptive probes, stale arrivals, missing
/// assignments and recovery.
fn run_protocol_cost(scenario: &Scenario, opts: &RunOptions) -> FigureReport {
    let DecoderKind::Distributed(strategy) = scenario.decoder else {
        unreachable!("ProtocolCost scenarios carry a Distributed decoder kind");
    };
    let trials = opts.resolve_trials(2, 4);
    let grid = scenario.grid(opts.mode);
    let regime = Regime::sublinear(scenario.theta);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &n in &grid {
        // Twice the Theorem-1 sufficient count: the fault-free protocol
        // rows should recover exactly, so the fault rows read as graceful
        // degradation against a working baseline.
        let m = (sweep::default_budget(n, scenario.theta, &scenario.noise) / 2).max(400);
        let gamma = (n / scenario.gamma_div).max(1);
        let instance = Instance::builder(n)
            .regime(regime)
            .queries(m)
            .query_size(gamma)
            .noise(scenario.noise)
            .design(scenario.design)
            .build()
            .expect("registry scenarios are valid configurations");
        let seeds: Vec<u64> = (0..trials as u64)
            .map(|t| mix_seed(0x5CE4_0000 ^ hash_name(scenario.name), (n as u64) << 8 | t))
            .collect();
        let outcomes = runner::parallel_map(&seeds, opts.threads, |&seed| {
            let run = instance.sample(&mut StdRng::seed_from_u64(seed));
            // Vary the fault seed with the trial so fault realizations are
            // independent across trials but reproducible.
            let faults = scenario.faults.map(|f| {
                FaultConfig::new(f.drop_prob(), f.dup_prob(), f.seed() ^ seed)
                    .expect("probabilities already validated")
                    .with_max_delay(f.max_delay())
            });
            let options = distributed::ProtocolOptions {
                strategy,
                faults,
                node_faults: scenario.chaos.map(|c| c.plan(seed)),
                winsorize: scenario.chaos.is_some_and(|c| c.corrupt_frac > 0.0),
                ..distributed::ProtocolOptions::default()
            };
            let outcome = distributed::run_protocol_chaos(&run, options)
                .expect("protocol terminates within its budget");
            let exact = f64::from(exact_recovery(&outcome.estimate, run.ground_truth()));
            let ov = overlap(&outcome.estimate, run.ground_truth());
            (outcome, exact, ov)
        });
        let mean = |f: &dyn Fn(&npd_core::distributed::ProtocolOutcome) -> f64| -> f64 {
            outcomes.iter().map(|(o, _, _)| f(o)).sum::<f64>() / trials as f64
        };
        let rounds = mean(&|o| o.rounds as f64);
        let messages = mean(&|o| o.metrics.messages_sent as f64);
        let sel_rounds = mean(&|o| o.selection_rounds() as f64);
        let sel_messages = mean(&|o| o.selection_messages() as f64);
        let probes = mean(&|o| o.probes as f64);
        let stale = mean(&|o| o.stale_messages as f64);
        let missing = mean(&|o| o.missing_assignments as f64);
        let quorum = mean(&|o| o.achieved_quorum() as f64);
        let crashes = mean(&|o| o.metrics.node_crashes as f64);
        let corrupted = mean(&|o| o.metrics.messages_corrupted as f64);
        let recovery = outcomes.iter().map(|(_, e, _)| e).sum::<f64>() / trials as f64;
        let mean_overlap = outcomes.iter().map(|(_, _, v)| v).sum::<f64>() / trials as f64;
        rows.push(vec![
            n.to_string(),
            instance.k().to_string(),
            m.to_string(),
            format!("{rounds:.0}"),
            format!("{messages:.0}"),
            format!("{sel_rounds:.0}"),
            format!("{sel_messages:.0}"),
            format!("{probes:.1}"),
            format!("{quorum:.0}"),
            format!("{mean_overlap:.2}"),
            format!("{recovery:.2}"),
        ]);
        csv_rows.push(vec![
            n.to_string(),
            instance.k().to_string(),
            m.to_string(),
            format!("{rounds:.1}"),
            format!("{messages:.1}"),
            format!("{sel_rounds:.1}"),
            format!("{sel_messages:.1}"),
            format!("{probes:.1}"),
            format!("{stale:.1}"),
            format!("{missing:.1}"),
            format!("{quorum:.1}"),
            format!("{crashes:.1}"),
            format!("{corrupted:.1}"),
            format!("{mean_overlap:.3}"),
            format!("{recovery:.3}"),
            trials.to_string(),
        ]);
    }
    let mut fault_label = match scenario.faults {
        None => "fault-free".to_string(),
        Some(f) => format!(
            "drop={} dup={} delay≤{}",
            f.drop_prob(),
            f.dup_prob(),
            f.max_delay()
        ),
    };
    if let Some(c) = scenario.chaos {
        let restart = match c.restart_after {
            None => String::new(),
            Some(after) => format!(" restart+{after}"),
        };
        fault_label = format!(
            "{fault_label}, chaos: crash={}{restart} corrupt={}×{}",
            c.crash_frac, c.corrupt_frac, c.corrupt_prob
        );
    }
    let rendered = format!(
        "Scenario {} — distributed protocol cost ({} selection, {fault_label}, \
         {trials} trials)\n{}",
        scenario.name,
        strategy,
        table(
            &[
                "n", "k", "m", "rounds", "messages", "selᵣ", "selₘ", "probes", "quorum", "overlap",
                "recovery",
            ],
            &rows
        )
    );
    FigureReport {
        name: format!("scenario-{}", scenario.name),
        rendered,
        csv_headers: vec![
            "n".into(),
            "k".into(),
            "m".into(),
            "rounds".into(),
            "messages".into(),
            "selection_rounds".into(),
            "selection_messages".into(),
            "probes".into(),
            "stale_messages".into(),
            "missing_assignments".into(),
            "achieved_quorum".into(),
            "node_crashes".into(),
            "messages_corrupted".into(),
            "mean_overlap".into(),
            "recovery_rate".into(),
            "trials".into(),
        ],
        csv_rows,
        notes: vec![scenario.summary.to_string()],
    }
}

/// Required-queries measurement (greedy scenarios): median over trials of
/// the first query count with exact reconstruction, per grid point.
fn run_required_queries(scenario: &Scenario, opts: &RunOptions) -> FigureReport {
    let trials = opts.resolve_trials(5, 25);
    let grid = scenario.grid(opts.mode);
    let regime = Regime::sublinear(scenario.theta);
    let cells: Vec<SweepCell> = grid
        .iter()
        .map(|&n| {
            let mut cell = SweepCell::paper(
                n,
                regime,
                scenario.noise,
                sweep::default_budget(n, scenario.theta, &scenario.noise),
                mix_seed(0x5CE2_0000, hash_name(scenario.name).wrapping_add(n as u64)),
            );
            cell.design = scenario.design;
            cell.gamma = Some((n / scenario.gamma_div).max(1));
            cell
        })
        .collect();
    let samples = sweep::required_queries_grid(&cells, trials, opts.threads);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (cell, sample) in cells.iter().zip(&samples) {
        let med = sample.median().map_or("NA".into(), |m| format!("{m:.0}"));
        rows.push(vec![
            cell.n.to_string(),
            sample.k.to_string(),
            cell.gamma_or_default().to_string(),
            med.clone(),
            sample.failures.to_string(),
        ]);
        csv_rows.push(vec![
            cell.n.to_string(),
            sample.k.to_string(),
            cell.gamma_or_default().to_string(),
            med,
            sample.failures.to_string(),
            trials.to_string(),
        ]);
    }
    let rendered = format!(
        "Scenario {} — median required queries ({} design, {} trials)\n{}",
        scenario.name,
        scenario.design,
        trials,
        table(&["n", "k", "Γ", "median m", "failures"], &rows)
    );
    FigureReport {
        name: format!("scenario-{}", scenario.name),
        rendered,
        csv_headers: vec![
            "n".into(),
            "k".into(),
            "gamma".into(),
            "median_required_queries".into(),
            "failures".into(),
            "trials".into(),
        ],
        csv_rows,
        notes: vec![scenario.summary.to_string()],
    }
}

/// Batch measurement (success rate or overlap) at the Theorem-1 query
/// budget, per grid point.
fn run_batch(scenario: &Scenario, opts: &RunOptions) -> FigureReport {
    let trials = opts.resolve_trials(5, 25);
    let grid = scenario.grid(opts.mode);
    let regime = Regime::sublinear(scenario.theta);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &n in &grid {
        // The Theorem-1 sufficient count (default_budget is 4× it).
        let m = (sweep::default_budget(n, scenario.theta, &scenario.noise) / 4).max(200);
        let gamma = (n / scenario.gamma_div).max(1);
        let instance = Instance::builder(n)
            .regime(regime)
            .queries(m)
            .query_size(gamma)
            .noise(scenario.noise)
            .design(scenario.design)
            .build()
            .expect("registry scenarios are valid configurations");
        let seeds: Vec<u64> = (0..trials as u64)
            .map(|t| mix_seed(0x5CE3_0000 ^ hash_name(scenario.name), (n as u64) << 8 | t))
            .collect();
        let per_trial = runner::parallel_map(&seeds, opts.threads, |&seed| {
            let run = instance.sample(&mut StdRng::seed_from_u64(seed));
            let decoder = scenario.decoder.build();
            let est = decoder.decode(&run);
            match scenario.measurement {
                Measurement::SuccessRate => f64::from(exact_recovery(&est, run.ground_truth())),
                _ => overlap(&est, run.ground_truth()),
            }
        });
        let rate = per_trial.iter().sum::<f64>() / trials as f64;
        rows.push(vec![
            n.to_string(),
            instance.k().to_string(),
            gamma.to_string(),
            m.to_string(),
            format!("{rate:.2}"),
        ]);
        csv_rows.push(vec![
            n.to_string(),
            instance.k().to_string(),
            gamma.to_string(),
            m.to_string(),
            format!("{rate:.3}"),
            trials.to_string(),
        ]);
    }
    let (metric_col, metric_label) = match scenario.measurement {
        Measurement::Overlap => ("mean_overlap", "mean overlap"),
        _ => ("success_rate", "exact-recovery rate"),
    };
    let rendered = format!(
        "Scenario {} — {metric_label} at the Theorem-1 budget ({} design, {} decoder, \
         {} trials)\n{}",
        scenario.name,
        scenario.design,
        scenario.decoder.name(),
        trials,
        table(&["n", "k", "Γ", "m", metric_label], &rows)
    );
    FigureReport {
        name: format!("scenario-{}", scenario.name),
        rendered,
        csv_headers: vec![
            "n".into(),
            "k".into(),
            "gamma".into(),
            "m".into(),
            metric_col.into(),
            "trials".into(),
        ],
        csv_rows,
        notes: vec![scenario.summary.to_string()],
    }
}

/// Stable per-scenario seed salt (FNV-1a of the name).
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use npd_core::PoolingDesign;

    #[test]
    fn registry_names_are_unique_and_parseable() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
        for s in &reg {
            assert!(find(s.name).is_some());
            assert!(!s.summary.is_empty());
            assert!(s.gamma_div >= 1);
            assert!(s.quick_max_exp10 <= s.full_max_exp10);
        }
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn registry_covers_all_four_structured_designs() {
        let designs: Vec<DesignSpec> = registry().iter().map(|s| s.design).collect();
        for required in [
            DesignSpec::Iid,
            DesignSpec::GammaSubset,
            DesignSpec::DoublyRegular,
            DesignSpec::SparseColumn,
            DesignSpec::spatially_coupled(),
        ] {
            assert!(designs.contains(&required), "{} missing", required.name());
        }
    }

    #[test]
    fn list_and_catalog_render_every_scenario() {
        let listing = list_rendered();
        let markdown = catalog_markdown();
        for s in registry() {
            assert!(listing.contains(s.name), "list missing {}", s.name);
            assert!(markdown.contains(s.name), "catalog missing {}", s.name);
            assert!(
                markdown.contains(&s.command()),
                "catalog missing command for {}",
                s.name
            );
        }
    }

    #[test]
    fn greedy_scenario_runs_end_to_end() {
        let mut scenario = find("doubly-regular-z01").expect("registered");
        scenario.quick_max_exp10 = 2; // n = 100 only: seconds
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&scenario, &opts);
        assert_eq!(report.name, "scenario-doubly-regular-z01");
        assert_eq!(report.csv_rows.len(), 1);
        assert_eq!(report.csv_rows[0].len(), report.csv_headers.len());
        assert!(report.rendered.contains("doubly-regular"));
    }

    #[test]
    fn batch_scenario_runs_end_to_end() {
        let mut scenario = find("amp-coupled").expect("registered");
        scenario.quick_max_exp10 = 2;
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&scenario, &opts);
        assert_eq!(report.csv_rows.len(), 1);
        // Success-rate CSV: last column is the trial count.
        assert_eq!(report.csv_rows[0].last().unwrap(), "2");
    }

    #[test]
    fn chaos_scenario_runs_end_to_end_and_reports_quorum() {
        let mut scenario = find("chaos-full-batcher").expect("registered");
        scenario.quick_max_exp10 = 8; // n = 256 only: seconds
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&scenario, &opts);
        assert_eq!(report.csv_rows.len(), 1);
        assert_eq!(report.csv_rows[0].len(), report.csv_headers.len());
        let col = |name: &str| -> f64 {
            let idx = report
                .csv_headers
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("missing column {name}"));
            report.csv_rows[0][idx].parse().unwrap()
        };
        // Crashes bit, corruption bit, and the protocol still completed
        // with a degraded — but majority — quorum.
        assert!(col("node_crashes") > 0.0);
        assert!(col("messages_corrupted") > 0.0);
        let quorum = col("achieved_quorum");
        assert!(
            quorum > 128.0 && quorum < 256.0,
            "quorum {quorum} out of the degraded-majority band"
        );
        assert!(col("mean_overlap") > 0.0);
        // Chaos schedules replay bit-identically.
        assert_eq!(run(&scenario, &opts).csv_rows, report.csv_rows);
    }

    #[test]
    fn registry_has_at_least_four_workload_scenarios() {
        let workload_names: Vec<&str> = registry()
            .iter()
            .filter(|s| s.workload.is_some() && s.measurement != Measurement::Categorical)
            .map(|s| s.name)
            .collect();
        assert!(
            workload_names.len() >= 4,
            "only {workload_names:?} workload scenarios registered"
        );
        assert!(workload_names.iter().all(|n| n.starts_with("workload-")));
        // And they show up in the CLI listing.
        let listing = list_rendered();
        for name in workload_names {
            assert!(listing.contains(name), "list missing {name}");
        }
    }

    #[test]
    fn categorical_scenario_runs_end_to_end() {
        let mut scenario = find("categorical-strains").expect("registered");
        scenario.quick_max_exp10 = 2; // n = 100 only
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&scenario, &opts);
        assert_eq!(report.name, "scenario-categorical-strains");
        assert_eq!(report.csv_rows.len(), 1);
        assert_eq!(report.csv_rows[0].len(), report.csv_headers.len());
        // d = strains + 1 made it into the report.
        let d_idx = report.csv_headers.iter().position(|h| h == "d").unwrap();
        assert_eq!(report.csv_rows[0][d_idx], "4");
        let acc_idx = report
            .csv_headers
            .iter()
            .position(|h| h == "label_accuracy")
            .unwrap();
        let accuracy: f64 = report.csv_rows[0][acc_idx].parse().unwrap();
        assert!(accuracy > 0.8, "accuracy {accuracy}");
        // Deterministic re-run.
        assert_eq!(run(&scenario, &opts).csv_rows, report.csv_rows);
    }

    #[test]
    fn categorical_d2_scenario_is_registered_with_one_strain() {
        let scenario = find("categorical-z01").expect("registered");
        assert_eq!(scenario.decoder.name(), "matrix-amp");
        assert_eq!(
            scenario.workload,
            Some(WorkloadSpec::MultiStrain {
                strains: 1,
                theta: 0.5
            })
        );
    }

    #[test]
    fn workload_overlap_scenario_runs_end_to_end() {
        let mut scenario = find("workload-community").expect("registered");
        scenario.quick_max_exp10 = 2; // n = 100 only
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&scenario, &opts);
        assert_eq!(report.name, "scenario-workload-community");
        assert_eq!(report.csv_rows.len(), 1);
        assert_eq!(report.csv_rows[0].len(), report.csv_headers.len());
        assert!(report.rendered.contains("prior-aware"));
        // Deterministic re-run.
        assert_eq!(run(&scenario, &opts).csv_rows, report.csv_rows);
    }

    #[test]
    fn tracking_scenario_runs_end_to_end() {
        let mut scenario = find("workload-sir-track").expect("registered");
        scenario.quick_max_exp10 = 2; // n = 100 only
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&scenario, &opts);
        // One row per epoch at the single grid point.
        assert_eq!(report.csv_rows.len(), TRACKING_EPOCHS);
        for row in &report.csv_rows {
            assert_eq!(row.len(), report.csv_headers.len());
        }
        assert!(report.rendered.contains("epoch"));
    }

    #[test]
    fn scenario_seeds_are_deterministic() {
        let scenario = find("paper-z01").expect("registered");
        let mut s = scenario;
        s.quick_max_exp10 = 2;
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        assert_eq!(run(&s, &opts).csv_rows, run(&s, &opts).csv_rows);
    }
}
