//! Gossip and aggregation protocols: push-sum averaging and a fully
//! decentralized top-`k` selection.
//!
//! Algorithm 1 step II has the agents sort themselves through a sorting
//! network, which needs `Θ(log² n)` rounds of pairwise compare-exchanges in
//! a fixed wiring. This module provides the two standard alternatives a
//! deployment could swap in:
//!
//! * [`PushSumNode`] — the classic randomized push-sum protocol
//!   (Kempe–Dobra–Gehrke 2003) for averaging; `O(log n)` rounds to
//!   `ε`-accuracy, fully topology-free.
//! * [`TopKNode`] — an *exact, deterministic* decentralized selection of
//!   the `k` highest-scoring agents, built from the doubling aggregation
//!   schedules of [`crate::schedule`]: butterfly **all-reduce** phases
//!   compute global aggregates (score bounds, counts above a probe
//!   threshold) in `log₂ n + O(1)` rounds each, and a final doubling
//!   **prefix scan** breaks exact ties toward smaller ids, matching the
//!   tie rule of the workspace's rank-`k` decoders. The bisection over the
//!   score threshold terminates *adaptively*: every node sees the same
//!   aggregate, so all nodes detect in lock-step when a probe isolates the
//!   `k`-th score (done — no tie scan needed) or when the interval is
//!   exhausted at `f64` precision (jump to the tie scan). There is no
//!   fixed iteration timetable to burn through.
//!
//! Both protocols run on the plain [`Network`] engine and
//! are exercised end-to-end (greedy scores in, reconstruction bits out) in
//! the workspace integration tests. The selection core is also embeddable
//! in a larger protocol ([`TopKCore`]); `npd-core`'s distributed decoder
//! runs it as its phase II when the `GossipThreshold` strategy is chosen.

use crate::schedule::{AllReduceSend, IdLine};
use crate::{Activity, Context, Metrics, Network, Node, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Push-sum averaging
// ---------------------------------------------------------------------------

/// Message of the push-sum protocol: a (value-mass, weight-mass) share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushSumMsg {
    /// Value mass.
    pub s: f64,
    /// Weight mass.
    pub w: f64,
}

/// One participant of the push-sum averaging protocol.
///
/// Every round the node keeps half of its `(s, w)` mass and pushes the
/// other half to a uniformly random peer; `s/w` converges to the global
/// average geometrically. Mass is conserved exactly, so the average of all
/// estimates is correct at every round — only the spread shrinks.
#[derive(Debug, Clone)]
pub struct PushSumNode {
    s: f64,
    w: f64,
    rounds_left: usize,
    rng: SmallRng,
    /// Construction inputs, kept so a fail-stop restart
    /// ([`Node::on_restart`]) can rebuild the node from scratch.
    init: (f64, usize, u64, usize),
}

impl PushSumNode {
    /// Creates a node holding `value`, gossiping for `rounds` rounds.
    ///
    /// The per-node RNG is seeded from `(seed, id)` so whole-network runs
    /// are reproducible.
    pub fn new(value: f64, rounds: usize, seed: u64, id: usize) -> Self {
        Self {
            s: value,
            w: 1.0,
            rounds_left: rounds,
            rng: SmallRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            init: (value, rounds, seed, id),
        }
    }

    /// Current estimate `s/w` of the global average.
    pub fn estimate(&self) -> f64 {
        self.s / self.w
    }
}

impl Node<PushSumMsg> for PushSumNode {
    fn on_round(&mut self, ctx: &mut Context<'_, PushSumMsg>) -> Activity {
        for env in ctx.inbox() {
            self.s += env.payload.s;
            self.w += env.payload.w;
        }
        if self.rounds_left == 0 {
            return Activity::Idle;
        }
        self.rounds_left -= 1;
        // Canonical push-sum targets: self plus the topology neighbors,
        // uniformly. On the complete topology this is the uniform draw over
        // all n nodes of Kempe–Dobra–Gehrke.
        let d = ctx.degree();
        let draw = self.rng.gen_range(0..=d);
        let peer = if draw == d {
            ctx.id()
        } else {
            ctx.neighbor(draw)
        };
        self.s /= 2.0;
        self.w /= 2.0;
        let share = PushSumMsg {
            s: self.s,
            w: self.w,
        };
        if peer == ctx.id() {
            // Self-push: the canonical protocol still halves and sends the
            // share to itself; deliver it locally (net no-op on mass, no
            // network traffic). Skipping the halving instead — as this node
            // once did — diverges from the canonical convergence schedule.
            self.s += share.s;
            self.w += share.w;
        } else {
            ctx.send(peer, share);
        }
        Activity::Active
    }

    fn on_restart(&mut self, _round: u64) {
        // Fail-stop semantics: the restarted node remembers nothing of the
        // run. It rejoins holding its *initial* value and unit weight —
        // mass it had accumulated (or pushed into flight) before the crash
        // is gone, which is exactly the degradation a crash inflicts on
        // real push-sum deployments.
        let (value, rounds, seed, id) = self.init;
        *self = Self::new(value, rounds, seed, id);
    }
}

/// Runs push-sum over `values` for `rounds` gossip rounds on the complete
/// topology and returns the per-node estimates of the global average.
///
/// Shards the network across the rayon pool; the result is bit-identical
/// at any shard or thread count.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn push_sum_average(values: &[f64], rounds: usize, seed: u64) -> Vec<f64> {
    push_sum_report_on(Topology::complete(values.len()), values, rounds, seed).estimates
}

/// Report of [`push_sum_report_on`]: the per-node estimates plus the full
/// communication metrics of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct PushSumReport {
    /// Per-node estimates of the global average, indexed by node id.
    pub estimates: Vec<f64>,
    /// Communication metrics of the whole run.
    pub metrics: Metrics,
}

/// Runs push-sum on an arbitrary [`Topology`]: each round a node pushes
/// half of its mass to a uniform member of `{self} ∪ neighbors`. Returns
/// the estimates with the run's [`Metrics`], which the experiments harness
/// prices overlay scenarios with.
///
/// On connected topologies the estimates converge to the global average;
/// sparse overlays (ring, grid, small world) trade per-round fan-out for
/// more rounds, which is exactly the scenario comparison the experiments
/// harness reports.
///
/// # Panics
///
/// Panics if `values` is empty or its length differs from `topology.n()`.
pub fn push_sum_report_on(
    topology: Topology,
    values: &[f64],
    rounds: usize,
    seed: u64,
) -> PushSumReport {
    assert!(!values.is_empty(), "push_sum_average: no values");
    let nodes: Vec<PushSumNode> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| PushSumNode::new(v, rounds, seed, i))
        .collect();
    let mut net = Network::new(nodes).with_topology(topology);
    // Invariant: every node goes idle once `rounds_left` hits zero and the
    // engine delivers all in-flight mass within one extra round, so the
    // `rounds + 2` budget always suffices on a fault-free network.
    #[allow(clippy::expect_used)]
    net.run_until_quiescent(rounds as u64 + 2)
        // xtask:allow(unwrap-audit): the idle-once-done node design makes the budget sufficient by construction (see invariant above)
        .expect("push-sum quiesces after its round budget by construction");
    PushSumReport {
        estimates: net.nodes().iter().map(PushSumNode::estimate).collect(),
        metrics: *net.metrics(),
    }
}

// ---------------------------------------------------------------------------
// Deterministic exact top-k selection
// ---------------------------------------------------------------------------

/// Message of the top-`k` selection protocol. Every variant carries the
/// sender's phase index: arrivals from any other phase (delayed or
/// duplicated copies straggling across a phase boundary) are counted and
/// ignored rather than corrupting the current aggregate — see
/// [`TopKReport::stale_messages`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopKMsg {
    /// All-reduce payload of the bounds phase.
    Bounds {
        /// Sender's phase index.
        phase: u32,
        /// Running minimum.
        min: f64,
        /// Running maximum.
        max: f64,
    },
    /// All-reduce payload of a bisection counting phase.
    Count {
        /// Sender's phase index.
        phase: u32,
        /// Number of scores strictly above the probe threshold.
        value: u64,
    },
    /// Prefix payload of the tie-breaking phase.
    Tie {
        /// Sender's phase index.
        phase: u32,
        /// Number of boundary scores at ids `≤` sender.
        value: u64,
    },
}

impl TopKMsg {
    /// The phase tag the message was sent in.
    fn phase(&self) -> u32 {
        match *self {
            TopKMsg::Bounds { phase, .. }
            | TopKMsg::Count { phase, .. }
            | TopKMsg::Tie { phase, .. } => phase,
        }
    }
}

/// Outcome of a finished [`TopKNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKDecision {
    /// Whether this agent is among the `k` selected.
    pub selected: bool,
    /// The round at which the node finalized its decision.
    pub decided_round: u64,
}

/// Default cap on bisection probes. Any weak probe is followed by a
/// key-halving one (see `midpoint`), so the bisection is provably
/// exhausted after ~130 probes for any finite scores; at this default the
/// cap is never reached and only bounds the round budget and
/// fault-degraded stragglers. Chaos scenarios can tighten it per run via
/// [`TopKCore::with_probe_limit`] to budget probes (and therefore rounds)
/// explicitly — a tighter cap trades selection exactness on adversarial
/// score ranges for a smaller worst-case round budget.
pub const PROBE_LIMIT: u32 = 160;

/// The phase a [`TopKCore`] is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    /// All-reduce of the global (min, max) score bounds.
    Bounds,
    /// All-reduce of the count of scores above the current probe.
    Count,
    /// Prefix scan of boundary ranks for the tie break.
    Tie,
    /// Decided.
    Done,
}

/// The embeddable state machine of one top-`k` selection participant.
///
/// [`TopKNode`] wraps this for standalone runs on a [`Network`]; the
/// distributed decoder in `npd-core` embeds it directly in its protocol
/// agents (translating its messages into the protocol's message enum), so
/// phase II of Algorithm 1 can run on the *same* network as the
/// measurement phase without ever materializing a sorting network.
///
/// # Protocol
///
/// All nodes advance a shared phase schedule in lock-step, one call to
/// [`step`](Self::step) per synchronous round:
///
/// 1. **Bounds** — one all-reduce; every node learns (min, max).
/// 2. **Count** — one all-reduce per bisection probe: count the scores
///    strictly above the probe `midpoint(lo, hi)`. Because every node sees
///    the same count, all nodes take identical transitions: if the count
///    equals `k` the protocol is *done* (selected ⇔ score > probe); if the
///    interval can no longer shrink in `f64`, all nodes jump to the tie
///    scan; otherwise the next probe starts. Termination is adaptive —
///    there is no fixed iteration count.
/// 3. **Tie** — one prefix scan of boundary membership; node `i` learns
///    its rank among the boundary scores at ids `≤ i` and selects itself
///    iff `count_above_hi + rank ≤ k`.
///
/// # Exactness
///
/// On a fault-free network the result is bit-identical to the sequential
/// rank-`k` rule (`Estimate::from_scores`) for *any* finite scores: a
/// count of exactly `k` proves the probe separates the `k` largest scores
/// from the rest, and interval exhaustion (adjacent `f64` endpoints)
/// proves every remaining boundary score is *equal* to `hi`, so the
/// lowest-id prefix rule is exactly the sequential tie break. Probes cut at
/// least a quarter of the interval's *ordered bit patterns* each (see
/// `midpoint`), so exhaustion is bounded regardless of the scores'
/// dynamic range.
///
/// # Fault degradation
///
/// Messages carry their phase index; arrivals from another phase (delayed
/// or duplicated copies) are counted as stale and ignored. Dropped
/// messages leave aggregates partial, which degrades *accuracy* but never
/// progress: every phase ends after its fixed number of rounds, every
/// probe strictly shrinks the node's local interval, and every node
/// reaches a decision within [`TopKNode::max_rounds`] rounds.
#[derive(Debug, Clone)]
pub struct TopKCore {
    score: f64,
    k: u64,
    line: IdLine,
    phase: PhaseKind,
    /// Index of the current phase (the message tag).
    phase_idx: u32,
    /// Step within the current phase.
    step: u64,
    /// Rounds executed so far.
    rounds: u64,
    lo: f64,
    hi: f64,
    /// `#{score > hi}` as of the latest interval update.
    count_above_hi: u64,
    probe: f64,
    probes: u32,
    /// Cap on bisection probes ([`PROBE_LIMIT`] unless overridden).
    probe_limit: u32,
    /// Global minimum after the bounds phase (drives the all-ties
    /// shortcut).
    global_min: f64,
    /// Aggregation accumulators (min/max for bounds, sum for count/tie).
    acc_min: f64,
    acc_max: f64,
    acc_sum: u64,
    /// Whether any in-phase arrival was merged during the current phase
    /// (drives the isolation cut-off under faults).
    merged_in_phase: bool,
    /// Whether the last probe cut less than a quarter of the key interval
    /// (forces the next probe onto the key midpoint; see `midpoint`).
    weak_probe: bool,
    stale: u64,
    isolated: bool,
    decision: Option<TopKDecision>,
}

impl TopKCore {
    /// Creates a participant holding `score`, selecting `k` of `n` agents.
    ///
    /// `k = 0` and `k = n` decide immediately (nothing to select / select
    /// everyone) without any communication.
    ///
    /// # Panics
    ///
    /// Panics if `score` is not finite, `n == 0`, or `k > n`.
    pub fn new(score: f64, k: usize, n: usize) -> Self {
        assert!(score.is_finite(), "TopKCore: score must be finite");
        assert!(n > 0, "TopKCore: n must be positive");
        assert!(k <= n, "TopKCore: k={k} exceeds n={n}");
        let trivial = k == 0 || k == n;
        Self {
            score,
            k: k as u64,
            line: IdLine::new(n),
            phase: if trivial {
                PhaseKind::Done
            } else {
                PhaseKind::Bounds
            },
            phase_idx: 0,
            step: 0,
            rounds: 0,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            count_above_hi: 0,
            probe: 0.0,
            probes: 0,
            probe_limit: PROBE_LIMIT,
            global_min: f64::NAN,
            acc_min: score,
            acc_max: score,
            acc_sum: 0,
            merged_in_phase: false,
            weak_probe: false,
            stale: 0,
            isolated: false,
            decision: trivial.then_some(TopKDecision {
                selected: k == n,
                decided_round: 0,
            }),
        }
    }

    /// Overrides the bisection probe cap (default [`PROBE_LIMIT`]).
    ///
    /// The cap is clamped to at least 1. Caps below the ~130-probe
    /// exhaustion bound can cut the bisection short on pathological score
    /// ranges (the tie scan then resolves a wider-than-minimal boundary),
    /// trading exactness for a smaller worst-case round budget — pair
    /// with [`TopKNode::max_rounds`] when budgeting runs.
    #[must_use]
    pub fn with_probe_limit(mut self, probe_limit: u32) -> Self {
        self.probe_limit = probe_limit.max(1);
        self
    }

    /// The probe cap this participant bisects under.
    pub fn probe_limit(&self) -> u32 {
        self.probe_limit
    }

    /// The node's decision once the protocol has finished.
    pub fn decision(&self) -> Option<TopKDecision> {
        self.decision
    }

    /// Bisection probes executed so far.
    pub fn probes(&self) -> u32 {
        self.probes
    }

    /// Out-of-phase arrivals counted and ignored so far.
    pub fn stale_messages(&self) -> u64 {
        self.stale
    }

    /// Whether this node decided early because an entire aggregation phase
    /// passed without a single in-phase arrival — it was cut off from the
    /// protocol by message loss and made a best-effort local decision
    /// instead of bisecting to exhaustion alone.
    pub fn is_isolated(&self) -> bool {
        self.isolated
    }

    /// Whether `self.score` lies in the boundary interval `(lo, hi]`.
    fn in_boundary(&self) -> bool {
        self.score > self.lo && self.score <= self.hi
    }

    fn phase_len(&self) -> u64 {
        match self.phase {
            PhaseKind::Bounds | PhaseKind::Count => self.line.allreduce_rounds(),
            PhaseKind::Tie => self.line.scan_rounds(),
            PhaseKind::Done => u64::MAX,
        }
    }

    /// Enters the next phase once the current one has run its rounds. The
    /// transition depends only on state every (fault-free) node shares, so
    /// all nodes switch in lock-step.
    fn advance_phase(&mut self) {
        self.phase_idx += 1;
        self.step = 0;
        self.merged_in_phase = false;
        match self.phase {
            PhaseKind::Bounds => {
                // Initialize the bisection interval just below/at the
                // actual score range: c(lo) = n ≥ k and c(max) = 0 < k
                // hold by construction.
                self.global_min = self.acc_min;
                self.lo = below(self.acc_min);
                self.hi = self.acc_max;
                self.count_above_hi = 0;
                self.weak_probe = false;
                if self.global_min == self.acc_max {
                    // Every score equal: the boundary is everyone, skip the
                    // bisection entirely.
                    self.enter_tie();
                } else {
                    self.enter_count();
                }
            }
            PhaseKind::Count => {
                let mid = midpoint(self.lo, self.hi, self.weak_probe);
                if self.probes >= self.probe_limit || !(mid > self.lo && mid < self.hi) {
                    // Interval exhausted at f64 precision: everything left
                    // in (lo, hi] is an exact tie at hi.
                    self.enter_tie();
                } else {
                    self.enter_count();
                }
            }
            PhaseKind::Tie | PhaseKind::Done => {
                self.phase = PhaseKind::Done;
            }
        }
    }

    fn enter_count(&mut self) {
        self.phase = PhaseKind::Count;
        self.probe = midpoint(self.lo, self.hi, self.weak_probe);
        self.acc_sum = u64::from(self.score > self.probe);
    }

    fn enter_tie(&mut self) {
        self.phase = PhaseKind::Tie;
        self.acc_sum = u64::from(self.in_boundary());
    }

    /// Merges one arrival into the current accumulator, or counts it as
    /// stale if it belongs to another phase (or phase kind).
    fn merge(&mut self, msg: TopKMsg) {
        if msg.phase() != self.phase_idx {
            self.stale += 1;
            return;
        }
        match (self.phase, msg) {
            (PhaseKind::Bounds, TopKMsg::Bounds { min, max, .. }) => {
                self.acc_min = self.acc_min.min(min);
                self.acc_max = self.acc_max.max(max);
                self.merged_in_phase = true;
            }
            (PhaseKind::Count, TopKMsg::Count { value, .. })
            | (PhaseKind::Tie, TopKMsg::Tie { value, .. }) => {
                self.acc_sum += value;
                self.merged_in_phase = true;
            }
            _ => self.stale += 1,
        }
    }

    /// The message carrying the current accumulator.
    fn payload(&self) -> TopKMsg {
        let phase = self.phase_idx;
        match self.phase {
            PhaseKind::Bounds => TopKMsg::Bounds {
                phase,
                min: self.acc_min,
                max: self.acc_max,
            },
            PhaseKind::Count => TopKMsg::Count {
                phase,
                value: self.acc_sum,
            },
            PhaseKind::Tie => TopKMsg::Tie {
                phase,
                value: self.acc_sum,
            },
            PhaseKind::Done => unreachable!("Done nodes never send"),
        }
    }

    /// Executes one synchronous round: merges `inbox`, emits this step's
    /// sends through `send(destination_id, message)`, and finalizes the
    /// phase on its last step. Returns `true` while the node still wants
    /// rounds (i.e. until its decision is made).
    ///
    /// `id` is the node's position on the id line `0..n`; the caller maps
    /// line ids to its own node-id space (the standalone wrapper uses the
    /// identity, the embedded protocol offsets by nothing since agents are
    /// ids `0..n` there too).
    pub fn step(
        &mut self,
        id: usize,
        inbox: impl IntoIterator<Item = TopKMsg>,
        mut send: impl FnMut(usize, TopKMsg),
    ) -> bool {
        if self.phase != PhaseKind::Done && self.step >= self.phase_len() {
            self.advance_phase();
        }
        for msg in inbox {
            if self.phase == PhaseKind::Done {
                self.stale += 1;
            } else {
                self.merge(msg);
            }
        }
        if self.phase == PhaseKind::Done {
            self.rounds += 1;
            return false;
        }

        // Emit this step's sends.
        match self.phase {
            PhaseKind::Bounds | PhaseKind::Count => {
                match self.line.allreduce_send(id, self.step) {
                    Some(AllReduceSend::FoldIn(dst)) => {
                        send(dst, self.payload());
                        // The destination now carries this node's mass; the
                        // total comes back in the fold-out round.
                        self.acc_min = f64::INFINITY;
                        self.acc_max = f64::NEG_INFINITY;
                        self.acc_sum = 0;
                    }
                    Some(AllReduceSend::Exchange(dst)) | Some(AllReduceSend::FoldOut(dst)) => {
                        send(dst, self.payload());
                    }
                    None => {}
                }
            }
            PhaseKind::Tie => {
                if let Some(dst) = self.line.scan_target(id, self.step) {
                    send(dst, self.payload());
                }
            }
            PhaseKind::Done => unreachable!("handled above"),
        }

        // Finalize on the phase's last step.
        if self.step + 1 == self.phase_len() {
            // Isolation cut-off: an aggregation phase (which delivers at
            // least one arrival to every node on a fault-free network of
            // n > 1) ended without a single in-phase arrival — this node
            // is cut off by message loss. Decide best-effort now instead
            // of bisecting a partial interval to exhaustion alone.
            if self.line.n() > 1
                && !self.merged_in_phase
                && matches!(self.phase, PhaseKind::Bounds | PhaseKind::Count)
            {
                self.isolated = true;
                self.decision = Some(TopKDecision {
                    selected: self.score > self.hi,
                    decided_round: self.rounds,
                });
                self.phase = PhaseKind::Done;
                self.rounds += 1;
                return false;
            }
            match self.phase {
                PhaseKind::Count => {
                    self.probes += 1;
                    if self.acc_sum == self.k {
                        // The probe separates the k largest scores exactly.
                        self.decision = Some(TopKDecision {
                            selected: self.score > self.probe,
                            decided_round: self.rounds,
                        });
                        self.phase = PhaseKind::Done;
                    } else {
                        let before = ord_key(self.hi) - ord_key(self.lo);
                        if self.acc_sum > self.k {
                            self.lo = self.probe;
                        } else {
                            self.hi = self.probe;
                            self.count_above_hi = self.acc_sum;
                        }
                        let after = ord_key(self.hi) - ord_key(self.lo);
                        // A probe that kept more than 3/4 of the key
                        // interval was weak; the next one halves it.
                        self.weak_probe = after > before - before / 4;
                    }
                }
                PhaseKind::Tie => {
                    // `acc_sum` is this node's boundary prefix rank (self
                    // included).
                    let selected = self.score > self.hi
                        || (self.in_boundary() && self.count_above_hi + self.acc_sum <= self.k);
                    self.decision = Some(TopKDecision {
                        selected,
                        decided_round: self.rounds,
                    });
                    self.phase = PhaseKind::Done;
                }
                PhaseKind::Bounds | PhaseKind::Done => {}
            }
        }
        self.step += 1;
        self.rounds += 1;
        self.phase != PhaseKind::Done
    }
}

/// One standalone participant of the deterministic top-`k` selection: a
/// [`TopKCore`] driven by the [`Network`] engine.
#[derive(Debug, Clone)]
pub struct TopKNode {
    core: TopKCore,
}

impl TopKNode {
    /// Creates a participant holding `score`, selecting `k` of `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `score` is not finite, `n == 0`, or `k > n`.
    pub fn new(score: f64, k: usize, n: usize) -> Self {
        Self {
            core: TopKCore::new(score, k, n),
        }
    }

    /// The node's decision once the protocol has finished.
    pub fn decision(&self) -> Option<TopKDecision> {
        self.core.decision()
    }

    /// Upper bound on the rounds any node needs to decide, for `n` nodes
    /// under the probe cap `probe_limit` ([`PROBE_LIMIT`] by default; see
    /// [`TopKCore::with_probe_limit`]): the bounds phase, at most
    /// `probe_limit` count phases, and the tie scan. The budget shrinks
    /// linearly with the cap, which is what chaos scenarios tune when they
    /// trade probe exactness for a tighter round budget. The adaptive
    /// termination finishes far earlier on real data; this is the budget
    /// guard for
    /// [`Network::run_until_quiescent`](crate::Network::run_until_quiescent).
    pub fn max_rounds(n: usize, probe_limit: u32) -> u64 {
        let line = IdLine::new(n);
        (1 + u64::from(probe_limit.max(1))) * line.allreduce_rounds() + line.scan_rounds() + 2
    }
}

impl Node<TopKMsg> for TopKNode {
    fn on_round(&mut self, ctx: &mut Context<'_, TopKMsg>) -> Activity {
        let id = ctx.id().0;
        // A node emits at most one message per round, so buffering the
        // send keeps the round allocation-free.
        let mut out: Option<(usize, TopKMsg)> = None;
        let inbox = ctx.inbox().iter().map(|env| env.payload);
        let active = self.core.step(id, inbox, |dst, msg| out = Some((dst, msg)));
        if let Some((dst, msg)) = out {
            ctx.send(NodeId(dst), msg);
        }
        if active {
            Activity::Active
        } else {
            Activity::Idle
        }
    }
}

/// Monotone map from `f64` (finite or infinite, not NaN) to the `u64`
/// key line: `x < y  ⟺  ord_key(x) < ord_key(y)` (with `-0.0` keyed one
/// below `+0.0`). Bisecting in key space halves the number of
/// *representable* values in the interval each probe, so any interval is
/// exhausted after at most 64 probes — independent of the scores' dynamic
/// range. An arithmetic midpoint would shrink wide-range intervals like
/// `(2.0, 1e300]` by value, needing ~1000 probes to reach the boundary.
fn ord_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b & 0x8000_0000_0000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000_0000_0000
    }
}

/// Inverse of [`ord_key`].
fn from_ord_key(k: u64) -> f64 {
    if k & 0x8000_0000_0000_0000 != 0 {
        f64::from_bits(k & 0x7FFF_FFFF_FFFF_FFFF)
    } else {
        f64::from_bits(!k)
    }
}

/// Bisection probe for `(lo, hi)`: the arithmetic midpoint by default (on
/// well-scaled scores, value bisection lands a probe between the `k`-th
/// and `(k+1)`-th order statistics fastest), or — when `prefer_key`
/// reports the previous probe was *weak* (cut less than a quarter of the
/// key interval) — the key-line midpoint, which unconditionally halves
/// the count of representable values. A weak probe is always followed by
/// a halving one, bounding the bisection at ~130 probes for any finite
/// scores — wide dynamic ranges
/// included. The probe is canonicalized so `-0.0` never becomes an
/// interval endpoint
/// (numeric comparisons treat the two zeros as equal, so a `-0.0`
/// endpoint would stall the strict-inequality progress check).
fn midpoint(lo: f64, hi: f64, prefer_key: bool) -> f64 {
    let mut probe = f64::NAN;
    if !prefer_key && lo.is_finite() && hi.is_finite() {
        // `hi - lo` may overflow to infinity; the strict-inside test
        // rejects the result and falls back to the key midpoint.
        let am = lo + (hi - lo) / 2.0;
        if am > lo && am < hi {
            probe = am;
        }
    }
    if probe.is_nan() {
        let a = ord_key(lo);
        let b = ord_key(hi);
        probe = from_ord_key(a + (b - a) / 2);
    }
    if probe.to_bits() == (-0.0f64).to_bits() {
        probe = 0.0;
    }
    probe
}

/// The key-line predecessor of `min`, skipping the `-0.0`/`+0.0` alias so
/// the result is *numerically* strictly below `min` — the initial `lo` of
/// the bisection (`count(>lo) = n >= k` holds by construction).
fn below(min: f64) -> f64 {
    let lo = from_ord_key(ord_key(min) - 1);
    if lo == 0.0 && min == 0.0 {
        from_ord_key(ord_key(min) - 2)
    } else {
        lo
    }
}

/// Report of [`select_top_k`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKReport {
    /// Selection bit per node id.
    pub selected: Vec<bool>,
    /// Rounds the network ran.
    pub rounds: u64,
    /// Messages sent in total.
    pub messages: u64,
    /// Bisection probes the adaptive termination actually needed (maximum
    /// over nodes; identical at every node on fault-free networks).
    pub probes: u32,
    /// Out-of-phase arrivals counted and ignored (non-zero only under
    /// message delay or duplication faults).
    pub stale_messages: u64,
    /// Nodes that decided early after an aggregation phase delivered them
    /// nothing at all (cut off by message loss; zero on fault-free runs).
    pub isolated_nodes: usize,
}

/// Runs the decentralized selection of the `k` largest `scores`.
///
/// Ties at the working precision break toward smaller node ids, matching
/// the rank-`k` decoders of `npd-core`. The bisection terminates
/// adaptively (see [`TopKCore`]); there is no iteration count to tune.
///
/// # Panics
///
/// Panics if `scores` is empty, a score is not finite, or `k >
/// scores.len()`.
pub fn select_top_k(scores: &[f64], k: usize) -> TopKReport {
    run_topk(Network::new(topk_nodes(scores, k)), 0)
}

fn topk_nodes(scores: &[f64], k: usize) -> Vec<TopKNode> {
    assert!(!scores.is_empty(), "select_top_k: no scores");
    let n = scores.len();
    scores.iter().map(|&s| TopKNode::new(s, k, n)).collect()
}

/// Runs a selection network to quiescence and collects its report. Under
/// message faults the protocol still terminates and every node decides:
/// phases end after a fixed number of rounds whether or not their
/// messages arrived, stale arrivals are counted and ignored, and partial
/// aggregates degrade accuracy, not progress.
fn run_topk(mut net: Network<TopKMsg, TopKNode>, max_delay: u64) -> TopKReport {
    // The budget covers the probe-limit bound plus the fault model's
    // maximum delivery delay (a delayed final message stretches the run).
    let budget = TopKNode::max_rounds(net.len(), PROBE_LIMIT) + max_delay + 2;
    // Invariant: every phase ends after a fixed number of rounds whether
    // or not messages arrive, so the probe-limit budget (plus the fault
    // model's maximum delay) bounds the run unconditionally.
    #[allow(clippy::expect_used)]
    net.run_until_quiescent(budget)
        // xtask:allow(unwrap-audit): fixed-length phases bound the run unconditionally (see invariant above)
        .expect("every node decides within the probe-limit budget");
    let rounds = net.metrics().rounds;
    let messages = net.metrics().messages_sent;
    let mut probes = 0u32;
    let mut stale = 0u64;
    let mut isolated = 0usize;
    let selected = net
        .into_nodes()
        .into_iter()
        .map(|node| {
            probes = probes.max(node.core.probes());
            stale += node.core.stale_messages();
            isolated += usize::from(node.core.is_isolated());
            // Invariant: a run that quiesced within the budget left every
            // node in `PhaseKind::Done`, which always carries a decision.
            #[allow(clippy::expect_used)]
            node.decision()
                // xtask:allow(unwrap-audit): quiescence within budget leaves every node in Done, which carries a decision
                .expect("adaptive phases always reach a decision")
                .selected
        })
        .collect();
    TopKReport {
        selected,
        rounds,
        messages,
        probes,
        stale_messages: stale,
        isolated_nodes: isolated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;
    use npd_numerics::vector::top_k_indices;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_sum_converges_to_average() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..64).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        let estimates = push_sum_average(&values, 80, 7);
        for (i, &e) in estimates.iter().enumerate() {
            assert!((e - avg).abs() < 1e-6, "node {i}: {e} vs {avg}");
        }
    }

    #[test]
    fn push_sum_single_node_is_identity() {
        let estimates = push_sum_average(&[3.25], 10, 1);
        assert_eq!(estimates, vec![3.25]);
    }

    #[test]
    fn push_sum_conserves_mass() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let nodes: Vec<PushSumNode> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| PushSumNode::new(v, 15, 3, i))
            .collect();
        let mut net = Network::new(nodes);
        for _ in 0..5 {
            net.step();
        }
        // In-flight mass plus node mass is always the initial total.
        let node_mass: f64 = net.nodes().iter().map(|n| n.s).sum();
        assert!(net.in_flight() > 0, "mass should be in motion mid-run");
        // Cannot inspect in-flight payloads directly; run to quiescence and
        // re-check totals instead.
        net.run_until_quiescent(30).unwrap();
        let total: f64 = net.nodes().iter().map(|n| n.s).sum();
        let weights: f64 = net.nodes().iter().map(|n| n.w).sum();
        assert!(
            (total - 10.0).abs() < 1e-12,
            "mass drifted: {node_mass} → {total}"
        );
        assert!((weights - 4.0).abs() < 1e-12);
    }

    fn check_selection(scores: &[f64], k: usize) {
        let report = select_top_k(scores, k);
        let expected = top_k_indices(scores, k);
        let mut expected_bits = vec![false; scores.len()];
        for i in expected {
            expected_bits[i] = true;
        }
        assert_eq!(
            report.selected, expected_bits,
            "selection mismatch for k={k}, scores={scores:?}"
        );
    }

    #[test]
    fn selects_top_k_on_random_scores() {
        let mut rng = StdRng::seed_from_u64(5);
        for &n in &[1usize, 2, 3, 7, 16, 33, 100] {
            let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            for &k in &[0usize, 1, n / 2, n] {
                check_selection(&scores, k.min(n));
            }
        }
    }

    #[test]
    fn breaks_ties_toward_smaller_ids() {
        let scores = [5.0, 3.0, 5.0, 5.0, 1.0];
        // k = 2 must pick ids 0 and 2 (the two smallest-id fives).
        check_selection(&scores, 2);
        // k = 3: all three fives.
        check_selection(&scores, 3);
        // k = 4: fives plus the 3.0.
        check_selection(&scores, 4);
    }

    #[test]
    fn distinguishes_tiny_gaps() {
        let scores = [1.0, 1.0 + 1e-12, 1.0 - 1e-12, 0.0];
        check_selection(&scores, 1);
        check_selection(&scores, 2);
    }

    /// Regression: the bisection walks ordered bit patterns, so scores
    /// spanning the full f64 dynamic range are separated exactly. The
    /// former arithmetic midpoint shrank the interval by *value* and hit
    /// the probe cap with (1.0, 2.0) still unseparated inside (lo, hi],
    /// mis-selecting id 0 by the tie rule.
    #[test]
    fn wide_dynamic_range_is_exact() {
        check_selection(&[1.0, 2.0, 1e300], 2);
        check_selection(&[-1e300, 1e-300, 2e-300, 1e300], 2);
        check_selection(&[5e-324, 0.0, -5e-324], 1);
        check_selection(&[-0.0, 0.0, 1.0], 2);
        let report = select_top_k(&[1.0, 2.0, 1e300], 2);
        assert!(
            report.probes < PROBE_LIMIT,
            "hybrid bisection must exhaust well under the cap, took {}",
            report.probes
        );
    }

    #[test]
    fn ord_key_roundtrips_and_orders() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(ord_key(w[0]) < ord_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &x in &samples {
            assert_eq!(from_ord_key(ord_key(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn all_equal_scores_select_prefix() {
        let scores = [2.0; 9];
        let report = select_top_k(&scores, 4);
        let expected: Vec<bool> = (0..9).map(|i| i < 4).collect();
        assert_eq!(report.selected, expected);
        // All-ties shortcut: the bounds phase detects min == max and jumps
        // straight to the tie scan without a single bisection probe.
        assert_eq!(report.probes, 0);
    }

    #[test]
    fn adaptive_termination_beats_the_fixed_timetable() {
        // The pre-adaptive protocol ran a fixed timetable of 90 probe
        // iterations — (3 + 2·90) uniform phases of ⌈log₂ n⌉ + 1 rounds —
        // regardless of the data. Well-separated scores must now finish in
        // a handful of probes and a small fraction of those rounds.
        let scores: Vec<f64> = (0..33).map(|i| i as f64).collect();
        let report = select_top_k(&scores, 5);
        let old_timetable = (3 + 2 * 90) * (33f64.log2().ceil() as u64 + 1);
        assert!(
            report.rounds * 4 < old_timetable,
            "adaptive run took {} rounds vs fixed timetable {old_timetable}",
            report.rounds
        );
        assert!(report.probes > 0 && report.probes < 90, "{}", report.probes);
        assert!(report.rounds <= TopKNode::max_rounds(33, PROBE_LIMIT));
        assert!(report.messages > 0);
        assert_eq!(report.stale_messages, 0);
    }

    #[test]
    fn trivial_k_decides_without_communication() {
        let scores = [3.0, 1.0, 2.0];
        let none = select_top_k(&scores, 0);
        assert_eq!(none.selected, vec![false; 3]);
        assert_eq!(none.messages, 0);
        let all = select_top_k(&scores, 3);
        assert_eq!(all.selected, vec![true; 3]);
        assert_eq!(all.messages, 0);
    }

    #[test]
    fn negative_scores_are_handled() {
        let scores = [-5.0, -1.0, -3.0, -4.0, -2.0];
        check_selection(&scores, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_k_above_n() {
        TopKNode::new(1.0, 5, 4);
    }

    /// The probe cap is a real knob: a tighter cap shrinks the round
    /// budget, every node still decides within it, and on well-separated
    /// scores (which need only a handful of probes) the selection stays
    /// exact.
    #[test]
    fn probe_limit_knob_bounds_rounds() {
        let scores: Vec<f64> = (0..16).map(|i| ((i * 11) % 16) as f64).collect();
        let n = scores.len();
        let cap = 24u32;
        assert!(TopKNode::max_rounds(n, cap) < TopKNode::max_rounds(n, PROBE_LIMIT));
        let nodes: Vec<TopKNode> = scores
            .iter()
            .map(|&s| TopKNode {
                core: TopKCore::new(s, 5, n).with_probe_limit(cap),
            })
            .collect();
        let mut net = Network::new(nodes);
        net.run_until_quiescent(TopKNode::max_rounds(n, cap))
            .unwrap();
        let expected = top_k_indices(&scores, 5);
        for (i, node) in net.nodes().iter().enumerate() {
            let decision = node.decision().expect("node must decide under the cap");
            assert_eq!(decision.selected, expected.contains(&i), "node {i}");
            assert_eq!(node.core.probe_limit(), cap);
        }
    }

    /// Fail-stop restart rebuilds a push-sum node from its construction
    /// inputs: accumulated mass, consumed rounds, and RNG position are all
    /// forgotten.
    #[test]
    fn push_sum_restart_wipes_to_initial_state() {
        let mut node = PushSumNode::new(4.0, 10, 3, 2);
        node.s = 99.0;
        node.w = 7.0;
        node.rounds_left = 1;
        node.on_restart(5);
        assert_eq!(node.s, 4.0);
        assert_eq!(node.w, 1.0);
        assert_eq!(node.rounds_left, 10);
    }

    /// Regression for the out-of-phase panic: the old merge hit
    /// `unreachable!` on any arrival that did not match the node's current
    /// phase state, so delay or duplication faults crashed the selection.
    /// Stale arrivals must now be counted and ignored, every node must
    /// still decide, and the run must stay within the round budget.
    #[test]
    fn delay_and_duplication_faults_do_not_panic() {
        let scores: Vec<f64> = (0..24).map(|i| ((i * 37) % 24) as f64).collect();
        let mut saw_stale = false;
        for seed in 0..6 {
            let faults = FaultConfig::new(0.0, 0.3, seed).unwrap().with_max_delay(2);
            let net = Network::new(topk_nodes(&scores, 6)).with_faults(faults);
            let report = run_topk(net, faults.max_delay());
            assert_eq!(report.selected.len(), 24, "seed={seed}");
            saw_stale |= report.stale_messages > 0;
        }
        assert!(saw_stale, "no run produced a stale (out-of-phase) arrival");
    }

    /// With a zero-fault config the faulted run is bit-identical to the
    /// fault-free one.
    #[test]
    fn zero_fault_config_matches_fault_free() {
        let scores: Vec<f64> = (0..19).map(|i| ((i * 7) % 13) as f64).collect();
        let clean = select_top_k(&scores, 5);
        let zero = FaultConfig::new(0.0, 0.0, 1).unwrap();
        let faulted = run_topk(Network::new(topk_nodes(&scores, 5)).with_faults(zero), 0);
        assert_eq!(clean, faulted);
    }

    #[test]
    fn push_sum_tolerates_bounded_delay() {
        // Push-sum reacts to arrivals, not to a timetable, so bounded
        // message delay only slows mixing: mass stays conserved and the
        // estimates still converge. (Contrast with the fixed-timetable
        // top-k selection, which requires the synchronous model.)
        let values = [1.0, 5.0, -3.0, 9.0, 2.0, -6.0, 4.0, 0.0];
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        let nodes: Vec<PushSumNode> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| PushSumNode::new(v, 100, 11, i))
            .collect();
        let faults = FaultConfig::new(0.0, 0.0, 23).unwrap().with_max_delay(2);
        let mut net = Network::new(nodes).with_faults(faults);
        net.run_until_quiescent(200).unwrap();
        assert!(net.metrics().messages_delayed > 0);
        let total_mass: f64 = net.nodes().iter().map(|n| n.s).sum();
        assert!((total_mass - values.iter().sum::<f64>()).abs() < 1e-9);
        for (i, node) in net.nodes().iter().enumerate() {
            assert!(
                (node.estimate() - avg).abs() < 1e-3,
                "node {i}: {} vs {avg}",
                node.estimate()
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The decentralized selection agrees with the sequential
            /// top-k rule (including its smaller-id tie break) on
            /// arbitrary score vectors.
            #[test]
            fn selection_matches_sequential_rule(
                scores in proptest::collection::vec(-100.0f64..100.0, 1..40),
                k_frac in 0.0f64..=1.0,
            ) {
                let n = scores.len();
                let k = ((n as f64) * k_frac).round() as usize;
                let k = k.min(n);
                let report = select_top_k(&scores, k);
                let mut expected = vec![false; n];
                for i in top_k_indices(&scores, k) {
                    expected[i] = true;
                }
                prop_assert_eq!(report.selected, expected);
            }

            /// Failure injection: under arbitrary drop/duplication/delay
            /// faults the selection never panics, always terminates, and
            /// every node still reaches a decision (accuracy may degrade;
            /// progress may not). Regression for the `unreachable!` the
            /// old merge-arrivals match hit on out-of-phase messages.
            #[test]
            fn faulted_selection_terminates_with_all_decisions(
                scores in proptest::collection::vec(-50.0f64..50.0, 1..32),
                k_frac in 0.0f64..=1.0,
                drop_p in 0.0f64..0.5,
                dup_p in 0.0f64..0.5,
                max_delay in 0u64..4,
                seed in 0u64..1_000,
            ) {
                let n = scores.len();
                let k = (((n as f64) * k_frac).round() as usize).min(n);
                let faults = FaultConfig::new(drop_p, dup_p, seed)
                    .unwrap()
                    .with_max_delay(max_delay);
                let net = Network::new(topk_nodes(&scores, k)).with_faults(faults);
                let report = run_topk(net, max_delay);
                prop_assert_eq!(report.selected.len(), n);
                prop_assert!(report.rounds <= TopKNode::max_rounds(n, PROBE_LIMIT) + 64);
            }

            /// Push-sum conserves total mass for any value vector and
            /// round budget.
            #[test]
            fn push_sum_mass_conservation(
                values in proptest::collection::vec(-50.0f64..50.0, 1..30),
                rounds in 0usize..25,
                seed in 0u64..1000,
            ) {
                let estimates = push_sum_average(&values, rounds, seed);
                prop_assert_eq!(estimates.len(), values.len());
                for e in estimates {
                    prop_assert!(e.is_finite());
                }
            }
        }
    }
}
