//! The two workloads: their instances, their operation, and the checks
//! every operation's output must pass.

use npd_core::distributed::{self, ProtocolOptions, ProtocolOutcome, SelectionStrategy};
use npd_core::{
    overlap, Decoder, Estimate, GreedyDecoder, GroundTruth, Instance, NoiseModel, PoolingGraph, Run,
};
use npd_telemetry::TelemetrySink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Gossip selection at the ROADMAP's end-to-end point (n = 2^16).
    ProtocolSelect,
    /// The paper's protocol (Batcher sort) on the paper's design.
    ProtocolPaper,
}

const ALL: [Workload; 2] = [Workload::ProtocolSelect, Workload::ProtocolPaper];

/// Instance parameters. They are fixed here, not derived from library
/// budget helpers, so a library change cannot silently change the input.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub k: usize,
    pub m: usize,
    pub gamma: usize,
    pub noise: NoiseModel,
    /// Seed of the base instance; the workload seed relabels its agents
    /// (see [`relabel`]).
    pub base_seed: u64,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProtocolSelect => "protocol-select",
            Workload::ProtocolPaper => "protocol-paper",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn names() -> Vec<&'static str> {
        ALL.iter().map(|w| w.name()).collect()
    }

    pub fn shape(self) -> Shape {
        match self {
            // The netsim_scale end-to-end instance.
            Workload::ProtocolSelect => Shape {
                n: 1 << 16,
                k: 256,
                m: 256,
                gamma: 2048,
                noise: NoiseModel::gaussian(1.0),
                base_seed: 11,
            },
            // The distributed-batcher scenario at n = 2^13: Γ = n/2,
            // k = round(n^0.25), m = twice the Theorem-1 count.
            Workload::ProtocolPaper => Shape {
                n: 1 << 13,
                k: 10,
                m: 696,
                gamma: 1 << 12,
                noise: NoiseModel::z_channel(0.1),
                base_seed: 11,
            },
        }
    }

    pub fn instance(self) -> Result<Instance, String> {
        let s = self.shape();
        Instance::builder(s.n)
            .k(s.k)
            .queries(s.m)
            .query_size(s.gamma)
            .noise(s.noise)
            .build()
            .map_err(|e| format!("{}: invalid instance: {e}", self.name()))
    }

    /// The fault-free protocol configuration.
    pub fn protocol(self) -> ProtocolOptions {
        let strategy = match self {
            Workload::ProtocolSelect => SelectionStrategy::gossip(),
            Workload::ProtocolPaper => SelectionStrategy::BatcherSort,
        };
        ProtocolOptions {
            strategy,
            ..ProtocolOptions::default()
        }
    }
}

/// Relabels the agents of `run` with a uniformly random permutation drawn
/// from `seed`.
///
/// Queries keep their order, slots and results, so the relabeled run is a
/// draw from the same design whose scores are the base run's scores
/// permuted. Every seed therefore gives the protocol the same work: the
/// gossip bisection's probe count depends on the score values alone, and
/// between independently sampled instances it swings the selection from
/// 120 to 307 rounds at n = 2^16, far more than any regression bound.
pub fn relabel(run: Run, seed: u64) -> Result<Run, String> {
    let n = run.instance().n();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let slot_lists: Vec<Vec<u32>> = run
        .graph()
        .queries()
        .iter()
        .map(|q| {
            q.iter()
                .flat_map(|(agent, count)| {
                    std::iter::repeat_n(perm[agent as usize], count as usize)
                })
                .collect()
        })
        .collect();
    let truth = GroundTruth::from_ones(
        n,
        run.ground_truth().ones().iter().map(|&a| perm[a as usize]),
    );
    let instance = run.instance().clone();
    let results = run.results().to_vec();
    drop(run);
    let graph = PoolingGraph::from_slot_lists(n, slot_lists);
    instance
        .assemble(truth, graph, results)
        .map_err(|e| format!("relabeling broke the instance: {e}"))
}

/// A workload bound to its sampled instance.
pub struct Bench {
    pub workload: Workload,
    pub run: Run,
    options: ProtocolOptions,
    /// The sequential decoder's estimate: the protocol==sequential pin.
    reference: Estimate,
}

impl Bench {
    pub fn new(workload: Workload, run: Run) -> Self {
        let options = workload.protocol();
        let reference = GreedyDecoder::new().decode(&run);
        Self {
            workload,
            run,
            options,
            reference,
        }
    }

    pub fn reference(&self) -> &Estimate {
        &self.reference
    }

    /// One operation. With `sink`, the run records into it (the traced
    /// operation); without, it runs exactly as a user would call it.
    pub fn op(&self, sink: Option<&TelemetrySink>) -> Result<ProtocolOutcome, String> {
        match sink {
            Some(sink) => distributed::run_protocol_chaos_traced(&self.run, self.options, sink),
            None => distributed::run_protocol_chaos(&self.run, self.options),
        }
        .map_err(|e| format!("protocol did not quiesce: {e}"))
    }

    /// The workload's correctness checks on one operation's outcome.
    pub fn check(&self, outcome: &ProtocolOutcome) -> Result<(), String> {
        if outcome.estimate != self.reference {
            return Err("estimate differs from the sequential greedy decoder".into());
        }
        if outcome.missing_assignments != 0 {
            return Err(format!(
                "{} missing assignments on a fault-free network",
                outcome.missing_assignments
            ));
        }
        Ok(())
    }

    /// Overlap of an outcome's estimate with the ground truth.
    pub fn overlap(&self, outcome: &ProtocolOutcome) -> f64 {
        overlap(&outcome.estimate, self.run.ground_truth())
    }
}
