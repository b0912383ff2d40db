//! The fully distributed implementation of Algorithm 1 on the message-
//! passing simulator.
//!
//! Network layout: nodes `0..n` are agents, nodes `n..n+m` are query nodes.
//! The protocol follows the paper line by line:
//!
//! 1. **Measure in parallel** (round 0): each query node sends its noisy
//!    result `σ̂ⱼ` to every *distinct* member `∂*aⱼ`.
//! 2. **Accumulate** (round 1): each agent folds the incoming measurements
//!    into `Ψᵢ`, `Δ*ᵢ`, `Δᵢ` and `Σ_{j∈∂*i}|∂aⱼ|` and forms the
//!    noise-aware score `Ψᵢ − (Σ_{j∈∂*i}|∂aⱼ| − Δᵢ)·(q + k(1−p−q)/(n−1))`
//!    ([`crate::Centering::NoiseAware`]; the printed `Ψᵢ − Δ*ᵢ·k/2` exists
//!    only in the sequential decoder, as the ablation's
//!    [`crate::Centering::Plain`]).
//! 3. **Select the top `k`** (phase II): pluggable via
//!    [`SelectionStrategy`] —
//!    * [`SelectionStrategy::BatcherSort`]: agents run a Batcher odd-even
//!      mergesort on score tokens, one network layer per round, two
//!      messages per comparator (the paper's Section III construction);
//!    * [`SelectionStrategy::GossipThreshold`]: agents run the adaptive
//!      threshold search of [`npd_netsim::gossip::TopKCore`] *inside this
//!      network* — global score bounds, then count all-reduces that each
//!      count the scores above [`npd_netsim::gossip::THRESHOLDS`]
//!      thresholds at once and narrow the interval around the `k`-th
//!      score, until a count equals `k` or only exact ties remain. No
//!      `O(n log² n)` sorting network is ever built, so this path scales
//!      to millions of agents.
//! 4. **Assign**: under `BatcherSort`, the agent holding a token at
//!    position `< k` notifies the token's owner (one extra round). Under
//!    `GossipThreshold` every agent decides its *own* bit locally — there
//!    is no assignment traffic at all.
//!
//! The output of both strategies is *bit-identical* to
//! [`crate::GreedyDecoder`], exactly as claimed in Section III: agents fold
//! their measurements through the sequential decoder's own accumulator
//! kernel (same expressions, same summation order — query senders arrive
//! in ascending id order), and selection breaks ties toward the smaller
//! agent id just like [`crate::Estimate::from_scores`]. The equivalence
//! tests check it.
//!
//! Under fault injection the protocol degrades gracefully rather than
//! deadlocking or corrupting state: sort tokens carry their layer and
//! stale (delayed) tokens are counted and ignored instead of being
//! consumed as the current layer's partner; a missing partner token leaves
//! the agent's own token in place; a missing assignment defaults to bit
//! zero (reported in [`ProtocolOutcome::missing_assignments`]); and the
//! gossip selection counts and ignores out-of-phase arrivals (reported in
//! [`ProtocolOutcome::stale_messages`]). The round budget accounts for the
//! fault model's maximum message delay, so delayed messages never turn
//! graceful degradation into a spurious `MaxRoundsExceeded`.
//!
//! # Agent lifecycle
//!
//! Every agent borrows one run-wide config: `k`, `n`, the slot rate, the
//! grace window, the winsorize flag, the probe cap and, under
//! `BatcherSort`, the one comparator schedule. Its own state is one role:
//!
//! * **Fold**, until its score round (`1 + grace`): the greedy sums, and a
//!   bitset of the query senders already folded (bit `j` is query node
//!   `n + j`), allocated at the first measurement;
//! * then **Batcher** (the token at its sort position) or **Gossip** (the
//!   embedded [`npd_netsim::gossip::TopKCore`]); the fold state is
//!   dropped at this transition;
//! * **Passive** after a restart (see below).
//!
//! Every selection round steps every agent, so an agent's width is the
//! memory a round walks. In one process, an `n = 2^16` selection ran at
//! 0.52–0.55 s for node widths from 120 to 200 bytes and at 0.73 s at
//! 280. The agent is 144 bytes and the gossip core 112, pinned by
//! `agent_size_is_pinned` here and `core_size_is_pinned` in
//! `npd_netsim::gossip`.
//!
//! # Accounting
//!
//! Every run reports one phase table, [`ProtocolOutcome::phases`]:
//! `measure`, `accumulate`, `select` and, under `BatcherSort`, `assign`,
//! each with its round span and the messages its senders sent. Messages
//! are counted where they are sent, not derived from the planned
//! broadcast, so a retransmitted measurement counts as a measurement and
//! one that a crashed query node never sent counts nowhere. The phases'
//! messages sum to the engine's `messages_sent` and their rounds to the
//! run's rounds. [`ProtocolOutcome::selection_rounds`],
//! [`ProtocolOutcome::selection_messages`] and the traced `phase` events
//! all read this one table.
//!
//! # Agent-level chaos
//!
//! [`run_protocol_chaos`] extends the fault surface from messages to
//! *agents* ([`ProtocolOptions`]): a [`NodeFaultPlan`] crashes, lags, or
//! corrupts nodes mid-protocol, and an optional [`ReliableConfig`] sends
//! the measurement broadcast through the engine's at-least-once layer.
//! The degradation contract extends accordingly:
//!
//! * A crashed agent simply stops participating; partners degrade exactly
//!   as if its messages were dropped (identity compare-exchanges under
//!   `BatcherSort`, partial aggregates under `GossipThreshold`).
//! * A *restarted* agent rejoins with its state wiped. It cannot re-enter
//!   the lock-step selection mid-phase, so it turns passive: it honors a
//!   late `Assign`, counts everything else as stale, and sends nothing.
//! * Corrupted payloads stay finite (see the garbler) and are folded like
//!   any other arrival; [`ProtocolOptions::winsorize`] clamps measurement
//!   values into the plausible `[0, slots]` range to bound the damage
//!   (the sequential [`crate::Fold::Winsorize`]).
//! * Measurements are deduplicated per query sender, so duplication
//!   faults and at-least-once retransmission never double-count.
//! * [`ProtocolOutcome::achieved_quorum`] and
//!   [`ProtocolOutcome::agent_liveness`] report how much of the
//!   population actually completed phase II; the round budget adds the
//!   straggler, retry, and grace slack so chaos runs still terminate
//!   instead of hitting `MaxRoundsExceeded`.

use crate::greedy::{Estimate, ScoreAccumulator};
use crate::model::Run;
use npd_netsim::gossip::{TopKCore, TopKMsg, PROBE_LIMIT};
use npd_netsim::{
    Activity, Context, Envelope, FaultConfig, MaxRoundsExceeded, Metrics, Network, Node,
    NodeFaultPlan, NodeId, NodeTraffic, ReliableConfig,
};
use npd_sortnet::SortingNetwork;
use npd_telemetry::{Event, TelemetrySink};

/// How phase II (top-`k` selection) of the protocol is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// The paper's Batcher odd-even mergesort: `O(log² n)` rounds, two
    /// messages per comparator, plus one assignment round. Requires an
    /// `O(n log² n)` comparator schedule in memory.
    #[default]
    BatcherSort,
    /// The adaptive gossip search over the score threshold
    /// ([`npd_netsim::gossip::TopKCore`]): `O(log n)` rounds per probe,
    /// one message per agent per round, no schedule memory, and every
    /// agent decides its own bit locally (no assignment phase).
    GossipThreshold {
        /// Cap on the probes (count all-reduces) of the embedded
        /// selection — and therefore on its worst-case round budget. The
        /// default ([`SelectionStrategy::gossip`]) is
        /// [`npd_netsim::gossip::PROBE_LIMIT`], which sits above the
        /// 155-probe exhaustion bound and never cuts the search short;
        /// chaos scenarios tighten it to budget rounds explicitly.
        probe_limit: u32,
    },
}

impl SelectionStrategy {
    /// The gossip strategy at the default probe cap
    /// ([`npd_netsim::gossip::PROBE_LIMIT`]).
    pub const fn gossip() -> Self {
        SelectionStrategy::GossipThreshold {
            probe_limit: PROBE_LIMIT,
        }
    }
}

impl std::fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SelectionStrategy::BatcherSort => "batcher",
            SelectionStrategy::GossipThreshold { .. } => "gossip",
        })
    }
}

/// Messages exchanged by the protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolMessage {
    /// A query's (noisy) measurement, broadcast to its distinct members.
    /// Carries the recipient's multiplicity in the query so the agent can
    /// form the noise-aware score (the query node knows how often it drew
    /// each member).
    Measurement {
        /// The query result `σ̂ⱼ`.
        value: f64,
        /// How often the recipient was drawn into the query.
        multiplicity: u32,
        /// The query's total slot count `|∂aⱼ|` (equals `Γ` on
        /// query-regular designs; carried explicitly so the noise-aware
        /// centering is exact on ragged, degree-balanced designs).
        slots: u32,
    },
    /// A sorting token: the score, the agent it belongs to, and the layer
    /// it is addressed to. The layer tag lets receivers filter tokens that
    /// a delay fault pushed past their comparator: consuming a stale token
    /// as the current layer's partner would silently corrupt the
    /// compare-exchange.
    Token {
        /// Greedy score of the token's owner.
        score: f64,
        /// The owner's agent id.
        agent: u32,
        /// The comparator layer this token is addressed to.
        layer: u32,
    },
    /// One message of the embedded gossip selection (phase-tagged; see
    /// [`npd_netsim::gossip::TopKMsg`]).
    TopK(npd_netsim::gossip::TopKMsg),
    /// Final bit assignment delivered to the token's owner.
    Assign {
        /// Whether the owner is among the top `k`.
        one: bool,
    },
}

/// Per-position comparator schedule derived from a [`SortingNetwork`].
#[derive(Debug)]
struct SortSchedule {
    depth: usize,
    /// `per_layer[layer][pos] = (partner, is_lo)` if `pos` participates.
    per_layer: Vec<Vec<Option<(u32, bool)>>>,
}

impl SortSchedule {
    fn new(net: &SortingNetwork) -> Self {
        let n = net.size();
        let per_layer = net
            .layers()
            .iter()
            .map(|layer| {
                let mut row = vec![None; n];
                for c in layer {
                    row[c.lo] = Some((c.hi as u32, true));
                    row[c.hi] = Some((c.lo as u32, false));
                }
                row
            })
            .collect::<Vec<_>>();
        Self {
            depth: per_layer.len(),
            per_layer,
        }
    }
}

/// Token ordering: higher score first, ties toward the smaller agent id —
/// the same total order the sequential decoder ranks by.
fn token_precedes(a: (f64, u32), b: (f64, u32)) -> bool {
    if a.0 != b.0 {
        a.0 > b.0
    } else {
        a.1 < b.1
    }
}

/// Run-wide constants of one protocol run. Every agent borrows the one
/// copy, so none of them travels through the selection rounds inside the
/// agents.
#[derive(Debug)]
struct AgentConfig {
    k: usize,
    n: usize,
    /// Words of an agent's `heard` bitset: one bit per query node.
    heard_words: usize,
    /// Per-slot one-read rate of the second neighborhood.
    slot_rate: f64,
    /// Extra rounds to keep folding late or retransmitted measurements
    /// before forming the score ([`ProtocolOptions::grace`]).
    grace: u64,
    /// Clamp incoming measurement values into `[0, slots]`
    /// ([`ProtocolOptions::winsorize`]).
    winsorize: bool,
    /// Probe cap of the embedded gossip core
    /// ([`SelectionStrategy::GossipThreshold::probe_limit`]).
    probe_limit: u32,
    /// The Batcher comparator schedule; `None` under `GossipThreshold`.
    schedule: Option<SortSchedule>,
}

/// One network participant: an agent or a query node.
///
/// Agents outnumber query nodes at protocol scale (`n ≫ m` is the
/// interesting regime) and the node vector is iterated densely every
/// round, so the padding the small `Query` variant pays for the `Agent`
/// variant is cheaper than boxing the common case.
#[derive(Debug)]
enum ProtocolNode<'a> {
    Agent(AgentState<'a>),
    Query(QueryState),
}

#[derive(Debug)]
struct AgentState<'a> {
    config: &'a AgentConfig,
    pos: u32,
    role: Role,
    score: f64,
    /// Stale arrivals counted and ignored (duplicate measurements,
    /// wrong-layer tokens under `BatcherSort`, out-of-phase gossip messages
    /// under `GossipThreshold`, anything but an assignment once passive).
    stale: u64,
    output: Option<bool>,
    /// Whether the agent has sent its final assignment (`BatcherSort`).
    /// Like the engine's send count it survives a restart, so the
    /// `assign` phase counts every assignment that was sent.
    sent_assign: bool,
}

/// An agent's lifecycle. It folds measurements until its score round,
/// then selects by the run's strategy; a restart leaves it passive. Each
/// transition drops the previous role's state.
#[derive(Debug)]
enum Role {
    /// Rounds `1..=1 + grace`: the greedy sums so far, and the query
    /// senders already folded — bit `j` stands for query node `n + j`.
    /// Measurements are deduplicated per query, so duplication faults and
    /// at-least-once retransmission never double-count. The bitset is
    /// allocated at the first measurement.
    Fold {
        sums: ScoreAccumulator,
        heard: Vec<u64>,
    },
    /// The token this sort position holds.
    Batcher { token: (f64, u32) },
    /// The embedded gossip selection.
    Gossip(TopKCore),
    /// Crashed and rejoined with wiped state ([`Node::on_restart`]). It
    /// cannot re-enter the lock-step selection mid-phase, so it honors a
    /// late assignment, counts everything else as stale, and sends
    /// nothing.
    Passive,
}

#[derive(Debug)]
struct QueryState {
    /// Distinct members with their multiplicities.
    neighbors: Vec<(u32, u32)>,
    result: f64,
    /// Total slot count of this query (including multiplicities).
    slots: u32,
    /// Send the measurement broadcast through the at-least-once layer
    /// ([`ProtocolOptions::reliable`]).
    reliable: bool,
}

impl Node<ProtocolMessage> for ProtocolNode<'_> {
    fn on_round(&mut self, ctx: &mut Context<'_, ProtocolMessage>) -> Activity {
        match self {
            ProtocolNode::Query(q) => q.on_round(ctx),
            ProtocolNode::Agent(a) => a.on_round(ctx),
        }
    }

    fn on_restart(&mut self, _round: u64) {
        // A query node's only action is the round-0 broadcast, which a
        // restart cannot replay; there is nothing to wipe.
        if let ProtocolNode::Agent(a) = self {
            a.role = Role::Passive;
            a.score = 0.0;
            a.output = None;
        }
    }
}

impl QueryState {
    fn on_round(&mut self, ctx: &mut Context<'_, ProtocolMessage>) -> Activity {
        if ctx.round() == 0 {
            for &(a, count) in &self.neighbors {
                let msg = ProtocolMessage::Measurement {
                    value: self.result,
                    multiplicity: count,
                    slots: self.slots,
                };
                if self.reliable {
                    ctx.send_reliable(NodeId(a as usize), msg);
                } else {
                    ctx.send(NodeId(a as usize), msg);
                }
            }
        }
        Activity::Idle
    }
}

impl AgentState<'_> {
    fn on_round(&mut self, ctx: &mut Context<'_, ProtocolMessage>) -> Activity {
        let config = self.config;
        let r = ctx.round();
        match &mut self.role {
            Role::Fold { sums, heard } => {
                // Rounds 1..=score_round collect measurements; with a zero
                // grace window this is the classic "fold in round 1"
                // schedule.
                if r > 0 {
                    fold_measurements(config, sums, heard, &mut self.stale, ctx.inbox());
                }
                if r < 1 + config.grace {
                    // Measurements are still in flight (or being
                    // retransmitted); stay active so the score round
                    // happens even in a query-free network.
                    return Activity::Active;
                }
                self.score = sums.score(config.slot_rate);
                self.start_selection(ctx)
            }
            Role::Batcher { .. } => self.batcher_round(ctx, r),
            Role::Gossip(core) => {
                gossip_round(core, self.pos, &mut self.stale, &mut self.output, ctx, true)
            }
            Role::Passive => {
                for env in ctx.inbox() {
                    match env.payload {
                        ProtocolMessage::Assign { one } => self.output = Some(one),
                        _ => self.stale += 1,
                    }
                }
                Activity::Idle
            }
        }
    }

    /// The score round's transition out of the fold: the agent enters its
    /// sort position with its own token, or starts the embedded gossip
    /// core on its score.
    fn start_selection(&mut self, ctx: &mut Context<'_, ProtocolMessage>) -> Activity {
        let config = self.config;
        let Some(schedule) = &config.schedule else {
            let mut core =
                TopKCore::new(self.score, config.k, config.n).with_probe_limit(config.probe_limit);
            // The score round's inbox holds the measurements folded above,
            // not selection traffic: the core starts from an empty inbox.
            let activity = gossip_round(
                &mut core,
                self.pos,
                &mut self.stale,
                &mut self.output,
                ctx,
                false,
            );
            self.role = Role::Gossip(core);
            return activity;
        };
        let token = (self.score, self.pos);
        if schedule.depth == 0 {
            // Trivial sort (n = 1): assign immediately.
            let one = (self.pos as usize) < config.k;
            ctx.send(NodeId(self.pos as usize), ProtocolMessage::Assign { one });
            self.sent_assign = true;
        } else if let Some((partner, _)) = schedule.per_layer[0][self.pos as usize] {
            send_token(ctx, partner, token, 0);
        }
        self.role = Role::Batcher { token };
        Activity::Idle
    }

    fn batcher_round(&mut self, ctx: &mut Context<'_, ProtocolMessage>, r: u64) -> Activity {
        let config = self.config;
        let (Some(schedule), Role::Batcher { token }) = (&config.schedule, &mut self.role) else {
            unreachable!("batcher_round called outside the Batcher role");
        };
        let resolved_layer = (r - 2 - config.grace) as usize;
        if resolved_layer < schedule.depth {
            // Resolve the compare-exchange whose tokens arrived this round.
            if let Some((_, is_lo)) = schedule.per_layer[resolved_layer][self.pos as usize] {
                let (theirs, stale) = first_token(ctx.inbox(), resolved_layer as u32);
                self.stale += stale;
                if let Some(theirs) = theirs {
                    let mine_first = token_precedes(*token, theirs);
                    // `lo` keeps the preceding token, `hi` the other.
                    *token = if is_lo == mine_first { *token } else { theirs };
                }
                // A dropped (or delayed — now filtered by the layer tag)
                // partner token leaves our token in place — degraded but
                // deadlock-free (see module docs).
            }
            let next = resolved_layer + 1;
            if next < schedule.depth {
                if let Some((partner, _)) = schedule.per_layer[next][self.pos as usize] {
                    send_token(ctx, partner, *token, next as u32);
                }
            } else {
                // Sorting finished: position < k ⇒ the token's owner is one.
                let one = (self.pos as usize) < config.k;
                ctx.send(NodeId(token.1 as usize), ProtocolMessage::Assign { one });
                self.sent_assign = true;
            }
        } else {
            // Assignment window: delayed assignments are still honored
            // (`>=` rather than `==`, so a delay fault cannot silently
            // discard a delivered assignment). Stray late tokens are
            // counted as stale.
            for env in ctx.inbox() {
                match env.payload {
                    ProtocolMessage::Assign { one } => self.output = Some(one),
                    ProtocolMessage::Token { .. } => self.stale += 1,
                    _ => {}
                }
            }
        }
        Activity::Idle
    }
}

/// Folds the inbox's measurements into the score accumulators,
/// deduplicating per query sender and (optionally) winsorizing the value
/// into the plausible `[0, slots]` range.
fn fold_measurements(
    config: &AgentConfig,
    sums: &mut ScoreAccumulator,
    heard: &mut Vec<u64>,
    stale: &mut u64,
    inbox: &[Envelope<ProtocolMessage>],
) {
    for env in inbox {
        if let ProtocolMessage::Measurement {
            value,
            multiplicity,
            slots,
        } = env.payload
        {
            if heard.is_empty() {
                heard.resize(config.heard_words, 0);
            }
            let query = env.from.0 - config.n;
            let (word, bit) = (query / 64, 1u64 << (query % 64));
            if heard[word] & bit != 0 {
                // Duplicate delivery: a duplication-fault copy, or a
                // retransmission that raced its original. Each query
                // counts exactly once.
                *stale += 1;
                continue;
            }
            heard[word] |= bit;
            let slots = u64::from(slots);
            let value = ScoreAccumulator::admit(value, slots, config.winsorize);
            sums.fold(value, u64::from(multiplicity), slots);
        }
    }
}

/// Sends a sort token to the position's partner of `layer`.
fn send_token(
    ctx: &mut Context<'_, ProtocolMessage>,
    partner: u32,
    (score, agent): (f64, u32),
    layer: u32,
) {
    ctx.send(
        NodeId(partner as usize),
        ProtocolMessage::Token {
            score,
            agent,
            layer,
        },
    );
}

/// Steps the embedded gossip core for one round, translating its sends
/// into protocol messages (agents are network ids `0..n`, so line ids map
/// one to one), and records the decision once the core reaches one.
/// Allocation-free: the inbox is fed as an iterator and the core's single
/// per-round send is buffered in an `Option`. Non-TopK arrivals (late
/// measurements under delay faults) are counted into `stale`, never
/// merged. `read_inbox` is false for the core's very first step (the
/// score round), whose inbox is the measurement broadcast, not selection
/// traffic.
fn gossip_round(
    core: &mut TopKCore,
    pos: u32,
    stale: &mut u64,
    output: &mut Option<bool>,
    ctx: &mut Context<'_, ProtocolMessage>,
    read_inbox: bool,
) -> Activity {
    let mut out: Option<(usize, TopKMsg)> = None;
    let mut late = 0u64;
    let take = if read_inbox { usize::MAX } else { 0 };
    let active = {
        let inbox = ctx
            .inbox()
            .iter()
            .take(take)
            .filter_map(|env| match env.payload {
                ProtocolMessage::TopK(m) => Some(m),
                _ => {
                    late += 1;
                    None
                }
            });
        core.step(pos as usize, inbox, |dst, msg| {
            out = Some((dst, msg));
        })
    };
    *stale += late;
    if let Some((dst, msg)) = out {
        ctx.send(NodeId(dst), ProtocolMessage::TopK(msg));
    }
    if let Some(decision) = core.decision() {
        *output = Some(decision.selected);
    }
    if active {
        Activity::Active
    } else {
        Activity::Idle
    }
}

/// First token addressed to `layer` in an inbox, plus the number of stale
/// (wrong-layer) tokens that were filtered out. Duplicates of the current
/// layer's token are ignored (first match wins).
fn first_token(inbox: &[Envelope<ProtocolMessage>], layer: u32) -> (Option<(f64, u32)>, u64) {
    let mut found = None;
    let mut stale = 0u64;
    for env in inbox {
        if let ProtocolMessage::Token {
            score,
            agent,
            layer: tag,
        } = env.payload
        {
            if tag == layer {
                if found.is_none() {
                    found = Some((score, agent));
                }
            } else {
                stale += 1;
            }
        }
    }
    (found, stale)
}

/// Result of a protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// The reconstruction (bits plus the scores the agents computed).
    pub estimate: Estimate,
    /// Synchronous rounds until quiescence.
    pub rounds: u64,
    /// Full communication metrics from the simulator.
    pub metrics: Metrics,
    /// The phase-II strategy that produced this outcome.
    pub strategy: SelectionStrategy,
    /// Depth of the sorting network used in phase II (`0` under
    /// [`SelectionStrategy::GossipThreshold`], which builds none).
    pub sort_depth: usize,
    /// Probes of the adaptive gossip selection: count all-reduces, each
    /// carrying up to [`npd_netsim::gossip::THRESHOLDS`] threshold counts
    /// (`0` under [`SelectionStrategy::BatcherSort`]).
    pub probes: u32,
    /// The protocol phases in round order, with their rounds and the
    /// messages their senders sent (see [`Phase`]). Their messages sum to
    /// `metrics.messages_sent` and their rounds to `rounds`.
    pub phases: Vec<Phase>,
    /// Stale arrivals counted and ignored by agents: wrong-layer sort
    /// tokens or out-of-phase gossip messages (non-zero only under delay
    /// or duplication faults).
    pub stale_messages: u64,
    /// Agents with no phase-II decision at the end of the run: no
    /// assignment arrived (`BatcherSort` under faults), or the agent
    /// crashed/restarted out of the selection (either strategy under a
    /// [`NodeFaultPlan`]); they default to bit zero.
    pub missing_assignments: usize,
    /// Per-agent liveness at the final round: `false` for agents down
    /// under the crash schedule (all `true` without a [`NodeFaultPlan`]).
    /// Restarted agents are alive but participated only passively.
    pub agent_liveness: Vec<bool>,
    /// Agents that crashed and rejoined with wiped state.
    pub restarted_agents: usize,
    /// Per-node traffic: agents first (`0..n`), then query nodes
    /// (`n..n+m`). Backs the paper's per-node communication claim.
    pub node_traffic: Vec<NodeTraffic>,
}

/// One protocol phase of a run: `measure`, `accumulate`, `select`, or
/// (under [`SelectionStrategy::BatcherSort`] only) `assign`.
///
/// Messages are counted at their senders. Query nodes send only
/// measurements, and they are the only nodes that send reliably, so
/// `measure` is their sends plus every retransmission. Agents send
/// selection traffic plus, under `BatcherSort`, one assignment each once
/// their sort position is final, so `select` is their sends minus those
/// assignments. `accumulate` sends nothing of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// `"measure"`, `"accumulate"`, `"select"` or `"assign"`.
    pub name: &'static str,
    /// The phase's first round.
    pub first_round: u64,
    /// Rounds the phase spans: 1 for `measure`, `1 + grace` for
    /// `accumulate` (the grace window and the score round), 1 for
    /// `assign`, and the rest, including any fault-induced stretch, for
    /// `select`, which spans 0 when the selection decides at once (as
    /// with `k = n`). When crashes end a run early, the later phases are
    /// cut short, so the rounds always sum to the run's.
    pub rounds: u64,
    /// Messages the phase's senders sent, retransmissions included.
    pub messages: u64,
}

impl ProtocolOutcome {
    /// Number of agents that completed phase II with a decision — the
    /// achieved quorum of the (possibly degraded) run:
    /// `n − missing_assignments`, so `n` on fault-free networks.
    pub fn achieved_quorum(&self) -> usize {
        self.estimate.n() - self.missing_assignments
    }

    /// Rounds of phase II (top-`k` selection), read from the `select`
    /// entry of [`ProtocolOutcome::phases`].
    pub fn selection_rounds(&self) -> u64 {
        self.select_phase().rounds
    }

    /// Messages of phase II, read from the `select` entry of
    /// [`ProtocolOutcome::phases`].
    pub fn selection_messages(&self) -> u64 {
        self.select_phase().messages
    }

    /// Every run lists `select` third, after `measure` and `accumulate`.
    fn select_phase(&self) -> &Phase {
        &self.phases[2]
    }
}

/// Configuration of a chaos run: phase-II strategy plus every fault
/// surface the simulator offers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolOptions {
    /// Phase-II strategy.
    pub strategy: SelectionStrategy,
    /// Message-level fault injection (drop / duplicate / delay).
    pub faults: Option<FaultConfig>,
    /// Agent-level fault plan — fail-stop crashes (with optional
    /// restarts), stragglers, and payload corruptors — over all `n + m`
    /// network nodes (agents `0..n`, query nodes `n..n+m`).
    pub node_faults: Option<NodeFaultPlan>,
    /// Send the measurement broadcast through the engine's at-least-once
    /// layer, so dropped or crash-lost measurements are retransmitted.
    pub reliable: Option<ReliableConfig>,
    /// Extra rounds agents keep folding late or retransmitted
    /// measurements before forming scores. Zero reproduces the classic
    /// schedule; pair a non-zero window with `reliable` (a good value is
    /// [`ReliableConfig::worst_case_rounds`]).
    pub grace: u64,
    /// Clamp incoming measurement values into the plausible `[0, slots]`
    /// range, bounding the leverage of corrupted (or extremely noisy)
    /// measurements on the scores. Off by default: clamping biases
    /// Gaussian noise, so it is a robustness trade, not a free win.
    ///
    /// This is [`crate::Fold::Winsorize`] run by the agents: both folds
    /// clamp through the same accumulator kernel, so on a fault-free
    /// network the protocol's scores equal
    /// [`crate::GreedyDecoder::scores_with`] under that fold bit for bit.
    pub winsorize: bool,
    /// Override the network shard count (default: one shard per rayon
    /// worker, at least 64 of the `n + m` nodes each). The outcome —
    /// and the deterministic telemetry stream of
    /// [`run_protocol_chaos_traced`] — is bit-identical for every
    /// value; this only controls available parallelism, and exists so
    /// the determinism suite can pin that claim across shard counts.
    pub shards: Option<usize>,
}

/// Deterministic payload garbler used for [`NodeFaultPlan`] corruptors:
/// floats are skewed by an entropy-derived bias (kept *finite* — the
/// selection core asserts finite scores, and a NaN would poison
/// aggregates irrecoverably rather than degrade them), counts are
/// perturbed, and assignment bits flip.
fn garble_protocol_message(msg: &mut ProtocolMessage, entropy: u64) {
    fn skew(x: f64, entropy: u64) -> f64 {
        // Entropy → bias in [-2, 2), scaled by the value's magnitude.
        let unit = (entropy >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x + (unit * 4.0 - 2.0) * (1.0 + x.abs())
    }
    match msg {
        ProtocolMessage::Measurement { value, .. } => *value = skew(*value, entropy),
        ProtocolMessage::Token { score, .. } => *score = skew(*score, entropy),
        ProtocolMessage::TopK(m) => match m {
            TopKMsg::Bounds { min, max, .. } => {
                *min = skew(*min, entropy);
                *max = skew(*max, entropy.rotate_left(17));
            }
            TopKMsg::Count { counts, .. } => {
                for (i, count) in counts.iter_mut().enumerate() {
                    *count ^= (entropy >> (3 * i)) as u32 & 0x7;
                }
            }
            TopKMsg::Tie { value, .. } => *value ^= entropy & 0x7,
        },
        ProtocolMessage::Assign { one } => *one ^= entropy & 1 == 1,
    }
}

/// The full-chaos entry point: message faults, agent faults, reliable
/// measurement delivery, a measurement grace window, and winsorized
/// accumulation, all in one [`ProtocolOptions`].
///
/// The round budget covers every configured slack (message delay,
/// straggler lag, retransmission backoff, grace window), so a chaos run
/// that terminates degraded still terminates *cleanly* — see the module
/// docs for the degradation contract.
///
/// On a fault-free network (the default options) both selection
/// strategies reproduce [`crate::GreedyDecoder`] bit for bit, and the
/// fault-free run always terminates after `depth + 3` rounds under
/// [`SelectionStrategy::BatcherSort`].
///
/// # Errors
///
/// Returns [`MaxRoundsExceeded`] if the network fails to quiesce within
/// that budget, which indicates a bug rather than a survivable fault.
///
/// # Examples
///
/// ```
/// use npd_core::distributed::{self, ProtocolOptions};
/// use npd_core::{Decoder, GreedyDecoder, Instance};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let run = Instance::builder(64).k(2).queries(60).build().unwrap().sample(&mut rng);
/// let outcome = distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
/// assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run));
/// ```
pub fn run_protocol_chaos(
    run: &Run,
    options: ProtocolOptions,
) -> Result<ProtocolOutcome, MaxRoundsExceeded> {
    run_protocol_chaos_traced(run, options, &TelemetrySink::default())
}

/// [`run_protocol_chaos`] with an attached telemetry sink.
///
/// The sink is handed to the network engine (per-round spans, delivery
/// and fault deltas, inbox/in-flight histograms; see
/// [`Network::with_telemetry`]), and on completion the protocol emits one
/// `phase` event per entry of [`ProtocolOutcome::phases`] — measurement
/// broadcast, score accumulation, selection, and (Batcher only)
/// assignment — carrying the phase's round range and message count.
/// Everything recorded is bit-identical across shard and thread counts;
/// wall-clock phase *timing* comes from joining the engine's round spans
/// against the phase round ranges in a harness (contract rule 11 keeps
/// real clocks out of this crate).
///
/// # Errors
///
/// Returns [`MaxRoundsExceeded`] if the network fails to quiesce within
/// the chaos budget, which indicates a bug rather than a survivable
/// fault.
///
/// # Examples
///
/// A gossip run builds no sorting network and sends no assignments, yet
/// selects the same agents as the default Batcher sort:
///
/// ```
/// use npd_core::distributed::{self, ProtocolOptions, SelectionStrategy};
/// use npd_core::Instance;
/// use npd_telemetry::TelemetrySink;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let run = Instance::builder(64).k(2).queries(60).build().unwrap().sample(&mut rng);
/// let sorted = distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
///
/// let gossip = ProtocolOptions {
///     strategy: SelectionStrategy::gossip(),
///     ..ProtocolOptions::default()
/// };
/// let sink = TelemetrySink::recording();
/// let gossip = distributed::run_protocol_chaos_traced(&run, gossip, &sink).unwrap();
/// assert_eq!(sorted.estimate, gossip.estimate);
/// assert_eq!(gossip.sort_depth, 0); // no sorting network was built
///
/// // No assignment phase, and the phases account for every message.
/// let names: Vec<_> = gossip.phases.iter().map(|p| p.name).collect();
/// assert_eq!(names, ["measure", "accumulate", "select"]);
/// let messages: u64 = gossip.phases.iter().map(|p| p.messages).sum();
/// assert_eq!(messages, gossip.metrics.messages_sent);
///
/// // One `phase` event per entry of the table, in round order.
/// let events = sink.recorder().unwrap().events();
/// let traced: Vec<_> = events
///     .iter()
///     .filter(|e| e.event.name == "phase")
///     .map(|e| e.event.phase)
///     .collect();
/// assert_eq!(traced, names);
/// ```
pub fn run_protocol_chaos_traced(
    run: &Run,
    options: ProtocolOptions,
    telemetry: &TelemetrySink,
) -> Result<ProtocolOutcome, MaxRoundsExceeded> {
    let strategy = options.strategy;
    let faults = options.faults;
    let n = run.instance().n();
    let k = run.instance().k();
    let slot_rate = crate::greedy::second_neighborhood_rate(n, k, run.instance().noise());

    let m = run.instance().m();
    let (schedule, probe_limit) = match strategy {
        SelectionStrategy::BatcherSort => (
            Some(SortSchedule::new(&SortingNetwork::batcher_odd_even(n))),
            0,
        ),
        SelectionStrategy::GossipThreshold { probe_limit } => (None, probe_limit),
    };
    let sort_depth = schedule.as_ref().map_or(0, |s| s.depth);
    let config = AgentConfig {
        k,
        n,
        heard_words: m.div_ceil(64),
        slot_rate,
        grace: options.grace,
        winsorize: options.winsorize,
        probe_limit,
        schedule,
    };

    let total_nodes = n + m;
    let mut nodes: Vec<ProtocolNode> = Vec::with_capacity(total_nodes);
    for pos in 0..n {
        nodes.push(ProtocolNode::Agent(AgentState {
            config: &config,
            pos: pos as u32,
            role: Role::Fold {
                sums: ScoreAccumulator::default(),
                heard: Vec::new(),
            },
            score: 0.0,
            stale: 0,
            output: None,
            sent_assign: false,
        }));
    }
    for (j, q) in run.graph().queries().iter().enumerate() {
        nodes.push(ProtocolNode::Query(QueryState {
            neighbors: q.iter().collect(),
            result: run.results()[j],
            slots: q.total_slots(),
            reliable: options.reliable.is_some(),
        }));
    }

    // The budget must cover every configured slack: the fault model's
    // maximum delivery delay (a delayed final token or assignment
    // stretches the run), the slowest straggler's persistent lag, the
    // reliable layer's worst-case retry chain, and the measurement grace
    // window. All of these are graceful degradation, not failure.
    let max_delay = faults.as_ref().map_or(0, FaultConfig::max_delay);
    let straggler_slack = options.node_faults.as_ref().map_or(0, |plan| {
        (0..total_nodes)
            .map(|i| plan.straggler_delay(i))
            .max()
            .unwrap_or(0)
    });
    let retry_slack = options
        .reliable
        .as_ref()
        .map_or(0, ReliableConfig::worst_case_rounds);
    let slack = max_delay + straggler_slack + retry_slack + options.grace;
    let budget = match strategy {
        SelectionStrategy::BatcherSort => sort_depth as u64 + 5 + slack,
        // max_rounds already carries the quiescence slack; add only the
        // two measurement rounds and the fault slack.
        SelectionStrategy::GossipThreshold { probe_limit } => {
            2 + npd_netsim::gossip::TopKNode::max_rounds(n, probe_limit) + slack
        }
    };

    // One shard per rayon worker unless overridden; the outcome is
    // bit-identical for any shard count (the netsim engine's core
    // guarantee).
    let mut network = Network::new(nodes).with_telemetry(telemetry.clone());
    if let Some(shards) = options.shards {
        network = network.with_shards(shards);
    }
    if let Some(cfg) = faults {
        network = network.with_faults(cfg);
    }
    if let Some(plan) = options.node_faults {
        network = network.with_node_faults(plan);
        if plan.has_corruption() {
            network = network.with_corruptor(garble_protocol_message);
        }
    }
    if let Some(rc) = options.reliable {
        network = network.with_reliability(rc);
    }
    let report = network.run_until_quiescent(budget)?;
    let metrics = *network.metrics();
    let node_traffic = network.traffic().to_vec();

    let mut bits = vec![false; n];
    let mut scores = vec![0.0; n];
    let mut missing = 0usize;
    let mut stale = 0u64;
    let mut probes = 0u32;
    let mut assign_messages = 0u64;
    let mut restarted_agents = 0usize;
    for (i, node) in network.into_nodes().into_iter().take(n).enumerate() {
        if let ProtocolNode::Agent(agent) = node {
            scores[i] = agent.score;
            stale += agent.stale;
            assign_messages += u64::from(agent.sent_assign);
            match &agent.role {
                Role::Gossip(core) => {
                    probes = probes.max(core.probes());
                    stale += core.stale_messages();
                }
                Role::Passive => restarted_agents += 1,
                // A `Fold` agent crashed before its score round and never
                // restarted.
                Role::Batcher { .. } | Role::Fold { .. } => {}
            }
            match agent.output {
                Some(one) => bits[i] = one,
                None => missing += 1,
            }
        }
    }
    let agent_liveness: Vec<bool> = (0..n)
        .map(|i| {
            options
                .node_faults
                .as_ref()
                .is_none_or(|plan| !plan.is_down(i, report.rounds))
        })
        .collect();

    let sent = |nodes: &[NodeTraffic]| nodes.iter().map(|t| t.sent).sum::<u64>();
    let measure_messages = sent(&node_traffic[n..]) + metrics.messages_retransmitted;
    let select_messages = sent(&node_traffic[..n]) - assign_messages;
    // The phases are contiguous, and each entry below names the round
    // after its phase. The broadcast takes round 0, the fold runs through
    // the score round `1 + grace`, Batcher's assignments arrive in the
    // last round, and selection fills the rest. Clamping to the run's
    // length keeps the spans summing to it when crashes end a run early.
    let total = report.rounds;
    let batcher = strategy == SelectionStrategy::BatcherSort;
    let accumulated = (2 + options.grace).min(total);
    let selected = total.saturating_sub(u64::from(batcher)).max(accumulated);
    let mut spans = vec![
        ("measure", 1, measure_messages),
        ("accumulate", accumulated, 0),
        ("select", selected, select_messages),
    ];
    if batcher {
        spans.push(("assign", total, assign_messages));
    }
    let mut first_round = 0;
    let phases = spans
        .into_iter()
        .map(|(name, end, messages)| {
            let phase = Phase {
                name,
                first_round,
                rounds: end - first_round,
                messages,
            };
            first_round = end;
            phase
        })
        .collect();

    let outcome = ProtocolOutcome {
        estimate: Estimate::from_parts(bits, scores),
        rounds: report.rounds,
        metrics,
        strategy,
        sort_depth,
        probes,
        phases,
        stale_messages: stale,
        missing_assignments: missing,
        agent_liveness,
        restarted_agents,
        node_traffic,
    };

    // One `phase` event per phase, emitted serially after the run, so the
    // stream stays bit-identical across shard and thread counts; a harness
    // joins these round ranges against the engine's per-round spans for
    // wall-clock phase shares. `last_round < first_round` marks an empty
    // phase.
    for phase in &outcome.phases {
        telemetry.emit(|| {
            let event = Event::instant("phase")
                .phase(phase.name)
                .round(phase.first_round)
                .u64("first_round", phase.first_round)
                .u64(
                    "last_round",
                    (phase.first_round + phase.rounds).saturating_sub(1),
                )
                .u64("rounds", phase.rounds)
                .u64("messages", phase.messages);
            if phase.name == "select" && !batcher {
                event.u64("probes", u64::from(probes))
            } else {
                event
            }
        });
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{Decoder, GreedyDecoder};
    use crate::model::Instance;
    use crate::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn options(strategy: SelectionStrategy, faults: Option<FaultConfig>) -> ProtocolOptions {
        ProtocolOptions {
            strategy,
            faults,
            ..ProtocolOptions::default()
        }
    }

    fn sample_run(n: usize, k: usize, m: usize, noise: NoiseModel, seed: u64) -> Run {
        Instance::builder(n)
            .k(k)
            .queries(m)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn matches_sequential_decoder_noiseless() {
        for seed in 0..4 {
            let run = sample_run(64, 3, 50, NoiseModel::Noiseless, seed);
            let outcome = run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
            let sequential = GreedyDecoder::new().decode(&run);
            assert_eq!(outcome.estimate, sequential, "seed={seed}");
            assert_eq!(outcome.missing_assignments, 0);
        }
    }

    #[test]
    fn matches_sequential_decoder_under_noise() {
        let channel = sample_run(50, 2, 40, NoiseModel::z_channel(0.3), 10);
        let gaussian = sample_run(50, 2, 40, NoiseModel::gaussian(2.0), 11);
        for run in [channel, gaussian] {
            let outcome = run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
            assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run));
        }
    }

    #[test]
    fn matches_sequential_on_non_power_of_two_sizes() {
        for n in [5usize, 17, 33, 100] {
            let run = sample_run(n, 2.min(n), 30, NoiseModel::Noiseless, n as u64);
            let outcome = run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
            assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run), "n={n}");
        }
    }

    /// The tentpole equivalence: the gossip threshold selection embedded
    /// in the protocol is bit-identical to the sequential decoder (and
    /// hence to the Batcher path), across noise models and awkward
    /// population sizes — including the tie-heavy noiseless scores.
    #[test]
    fn gossip_strategy_matches_sequential_decoder() {
        for (seed, noise) in [
            (0u64, NoiseModel::Noiseless),
            (1, NoiseModel::z_channel(0.3)),
            (2, NoiseModel::channel(0.2, 0.1)),
            (3, NoiseModel::gaussian(1.5)),
        ] {
            let run = sample_run(96, 3, 60, noise, seed);
            let outcome =
                run_protocol_chaos(&run, options(SelectionStrategy::gossip(), None)).unwrap();
            let sequential = GreedyDecoder::new().decode(&run);
            assert_eq!(outcome.estimate, sequential, "noise={noise}");
            assert_eq!(outcome.missing_assignments, 0);
            assert_eq!(outcome.stale_messages, 0);
        }
        for n in [2usize, 3, 5, 17, 33, 100] {
            let run = sample_run(n, 2.min(n), 30, NoiseModel::Noiseless, 40 + n as u64);
            let outcome =
                run_protocol_chaos(&run, options(SelectionStrategy::gossip(), None)).unwrap();
            assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run), "n={n}");
        }
    }

    /// The gossip path never materializes the sorting network and decides
    /// every bit locally: no assignment traffic, per-phase accounting adds
    /// up.
    #[test]
    fn gossip_strategy_skips_sorting_network_and_assignments() {
        let run = sample_run(64, 3, 80, NoiseModel::gaussian(1.0), 9);
        let outcome = run_protocol_chaos(&run, options(SelectionStrategy::gossip(), None)).unwrap();
        assert_eq!(outcome.strategy, SelectionStrategy::gossip());
        assert_eq!(outcome.sort_depth, 0);
        assert!(outcome.probes > 0, "adaptive threshold search must probe");
        let measurement: u64 = run
            .graph()
            .queries()
            .iter()
            .map(|q| q.distinct_len() as u64)
            .sum();
        // All non-measurement traffic belongs to the selection phase.
        assert_eq!(
            outcome.selection_messages(),
            outcome.metrics.messages_sent - measurement
        );
        assert_eq!(outcome.selection_rounds(), outcome.rounds - 2);
    }

    #[test]
    fn round_count_is_depth_plus_three() {
        let run = sample_run(32, 2, 10, NoiseModel::Noiseless, 1);
        let outcome = run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
        assert_eq!(outcome.rounds, outcome.sort_depth as u64 + 3);
        assert_eq!(outcome.selection_rounds(), outcome.sort_depth as u64);
    }

    #[test]
    fn message_budget_matches_formula() {
        // Messages = Σⱼ|∂*aⱼ| (measurements) + 2·comparators (tokens)
        //          + n (assignments).
        let run = sample_run(40, 2, 12, NoiseModel::Noiseless, 2);
        let outcome = run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
        let measurement_msgs: u64 = run
            .graph()
            .queries()
            .iter()
            .map(|q| q.distinct_len() as u64)
            .sum();
        let comparators = SortingNetwork::batcher_odd_even(40).comparator_count() as u64;
        let want = measurement_msgs + 2 * comparators + 40;
        assert_eq!(outcome.metrics.messages_sent, want);
        assert_eq!(outcome.selection_messages(), 2 * comparators);
    }

    #[test]
    fn one_exchange_per_query_node() {
        // The paper's headline: each query node broadcasts its measurement
        // exactly once (one active send round, one message per distinct
        // member), and never receives anything.
        let run = sample_run(30, 2, 8, NoiseModel::Noiseless, 3);
        let outcome = run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
        let n = 30;
        for (j, q) in run.graph().queries().iter().enumerate() {
            let t = outcome.node_traffic[n + j];
            assert_eq!(t.active_send_rounds, 1, "query {j}");
            assert_eq!(t.sent, q.distinct_len() as u64, "query {j}");
            assert_eq!(t.received, 0, "query {j}");
        }
        // Agents exchange only during the sort + one assignment: bounded by
        // one message per layer plus the assignment.
        for (i, t) in outcome.node_traffic[..n].iter().enumerate() {
            assert!(
                t.sent <= outcome.sort_depth as u64 + 1,
                "agent {i} sent {} messages",
                t.sent
            );
        }
    }

    #[test]
    fn tiny_populations() {
        for n in [2usize, 3] {
            let run = sample_run(n, 1, 6, NoiseModel::Noiseless, 7);
            let outcome = run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
            assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run), "n={n}");
        }
    }

    #[test]
    fn survives_measurement_drops_with_generous_queries() {
        // 1% drop rate, twice the necessary queries: reconstruction should
        // still be exact for this seed, and the protocol must terminate.
        // (Fault seed re-picked for the per-message-identity fault RNG.)
        let run = sample_run(64, 2, 120, NoiseModel::Noiseless, 22);
        let faults = FaultConfig::new(0.01, 0.0, 1).unwrap();
        let outcome =
            run_protocol_chaos(&run, options(SelectionStrategy::BatcherSort, Some(faults)))
                .unwrap();
        assert!(outcome.metrics.messages_dropped > 0);
        assert_eq!(outcome.estimate.ones(), run.ground_truth().ones());
    }

    #[test]
    fn heavy_drops_degrade_but_terminate() {
        let run = sample_run(32, 2, 40, NoiseModel::Noiseless, 22);
        let faults = FaultConfig::new(0.5, 0.0, 6).unwrap();
        let outcome =
            run_protocol_chaos(&run, options(SelectionStrategy::BatcherSort, Some(faults)))
                .unwrap();
        // Termination and shape are guaranteed; correctness is not.
        assert_eq!(outcome.estimate.bits().len(), 32);
        assert!(outcome.rounds <= outcome.sort_depth as u64 + 5);
    }

    #[test]
    fn duplication_faults_terminate() {
        let run = sample_run(16, 1, 10, NoiseModel::Noiseless, 23);
        let faults = FaultConfig::new(0.0, 0.3, 7).unwrap();
        let outcome =
            run_protocol_chaos(&run, options(SelectionStrategy::BatcherSort, Some(faults)))
                .unwrap();
        assert_eq!(outcome.estimate.bits().len(), 16);
    }

    /// Regression (stale-token bug): `ProtocolMessage::Token` used to
    /// carry no layer tag, so with delay faults a token from an earlier
    /// layer was consumed by `first_token` as the current layer's partner,
    /// silently corrupting the compare-exchange (verified: the
    /// stale-consuming variant produces a *different* estimate on every
    /// seed below). `first_token` must skip wrong-layer tokens — even when
    /// the stale sender sorts first in the inbox — and report them.
    #[test]
    fn first_token_filters_stale_layers() {
        let stale = ProtocolMessage::Token {
            score: 9.0,
            agent: 0,
            layer: 0,
        };
        let current = ProtocolMessage::Token {
            score: 2.0,
            agent: 5,
            layer: 1,
        };
        // The stale sender (id 0) precedes the current partner (id 5) in
        // the (sender, seq)-sorted inbox — exactly the arrangement the old
        // `first_token` mis-consumed.
        let inbox = vec![
            Envelope {
                from: NodeId(0),
                to: NodeId(3),
                payload: stale,
            },
            Envelope {
                from: NodeId(5),
                to: NodeId(3),
                payload: current,
            },
        ];
        let (found, stale_count) = first_token(&inbox, 1);
        assert_eq!(found, Some((2.0, 5)));
        assert_eq!(stale_count, 1);
        // A fully stale inbox degrades to "no partner" instead of
        // consuming a wrong-layer token.
        let (found, stale_count) = first_token(&inbox[..1], 1);
        assert_eq!(found, None);
        assert_eq!(stale_count, 1);
    }

    /// End-to-end arm of the stale-token regression: delay-only faults
    /// must terminate, surface the filtered tokens in
    /// [`ProtocolOutcome::stale_messages`], and replay deterministically.
    #[test]
    fn delayed_tokens_are_filtered_not_consumed() {
        let mut saw_stale = false;
        for seed in 0..12u64 {
            let run = sample_run(32, 3, 120, NoiseModel::Noiseless, 50 + seed);
            let faults = FaultConfig::new(0.0, 0.0, seed).unwrap().with_max_delay(2);
            let outcome =
                run_protocol_chaos(&run, options(SelectionStrategy::BatcherSort, Some(faults)))
                    .unwrap();
            assert_eq!(outcome.estimate.bits().len(), 32, "seed={seed}");
            saw_stale |= outcome.stale_messages > 0;
        }
        assert!(saw_stale, "no run exercised the stale-token path");
    }

    /// Regression (delay-budget bug): the round budget used to be
    /// `sort_depth + 5`, ignoring `faults.max_delay()`, so a delayed
    /// assignment turned graceful degradation into a spurious
    /// `MaxRoundsExceeded`. With the delay bound in the budget every
    /// delay-only run must terminate cleanly.
    #[test]
    fn delay_only_faults_stay_within_budget() {
        let mut saw_delay = false;
        for seed in 0..10u64 {
            let run = sample_run(24, 2, 60, NoiseModel::Noiseless, 80 + seed);
            let faults = FaultConfig::new(0.0, 0.0, seed).unwrap().with_max_delay(6);
            let outcome =
                run_protocol_chaos(&run, options(SelectionStrategy::BatcherSort, Some(faults)))
                    .unwrap_or_else(|e| panic!("seed={seed}: spurious {e}"));
            assert_eq!(outcome.estimate.bits().len(), 24);
            saw_delay |= outcome.metrics.messages_delayed > 0;
        }
        assert!(saw_delay, "no run drew a delay fault");
    }

    /// The gossip strategy under combined faults: terminates, never
    /// panics, and every agent still decides its own bit (selection is
    /// local, so there are no missing assignments to report).
    #[test]
    fn gossip_strategy_degrades_gracefully_under_faults() {
        for (drop, dup, delay, seed) in [(0.1, 0.0, 0u64, 1u64), (0.0, 0.3, 2, 2), (0.2, 0.2, 3, 3)]
        {
            let run = sample_run(48, 3, 70, NoiseModel::Noiseless, 90 + seed);
            let faults = FaultConfig::new(drop, dup, seed)
                .unwrap()
                .with_max_delay(delay);
            let outcome =
                run_protocol_chaos(&run, options(SelectionStrategy::gossip(), Some(faults)))
                    .expect("gossip protocol must terminate under faults");
            assert_eq!(outcome.estimate.bits().len(), 48);
            assert_eq!(outcome.missing_assignments, 0, "gossip decisions are local");
        }
    }

    #[test]
    fn token_order_is_total_and_deterministic() {
        assert!(token_precedes((2.0, 5), (1.0, 0)));
        assert!(!token_precedes((1.0, 0), (2.0, 5)));
        assert!(token_precedes((1.0, 0), (1.0, 1)));
        assert!(!token_precedes((1.0, 1), (1.0, 0)));
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(SelectionStrategy::BatcherSort.to_string(), "batcher");
        assert_eq!(SelectionStrategy::gossip().to_string(), "gossip");
    }

    /// The bytes each delivered message moves: the netsim arena copies
    /// every broadcast envelope at this size, so a wider variant (say, a
    /// multi-threshold `TopKMsg`) makes every broadcast round move more.
    #[test]
    fn message_and_envelope_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<ProtocolMessage>(), 24);
        assert_eq!(std::mem::size_of::<Envelope<ProtocolMessage>>(), 40);
    }

    /// The bytes each node step walks: every selection round steps all `n`
    /// agents, so the node's width sets the memory a round touches. In
    /// one process, padding a standalone selection node from 168 to 280
    /// bytes took an n=2^16 selection from 0.55 to 0.73 s (medians of 9
    /// runs), while widths from 120 to 200 bytes all ran at 0.52–0.55 s.
    /// An agent is its borrowed config, its position, its score, its
    /// counters and one lifecycle role, the widest of which is the gossip
    /// core. A field that pushes it back past about 200 bytes fails here.
    #[test]
    fn agent_size_is_pinned() {
        assert_eq!(std::mem::size_of::<ProtocolNode>(), 144);
    }

    /// Runs `options` at one and at four shards, asserts that both give
    /// the same outcome, and returns it, so the role transitions run on
    /// one shard and across several.
    fn at_one_and_four_shards(run: &Run, options: ProtocolOptions) -> ProtocolOutcome {
        let [one, four] = [1, 4].map(|shards| {
            let options = ProtocolOptions {
                shards: Some(shards),
                ..options
            };
            run_protocol_chaos(run, options)
                .unwrap_or_else(|e| panic!("{}, {shards} shards: {e}", options.strategy))
        });
        assert_eq!(
            one, four,
            "{}: the outcome depends on the shards",
            options.strategy
        );
        one
    }

    /// The acceptance bar of the chaos tentpole: with ~10% of nodes
    /// crashing mid-protocol and ~5% corrupting payloads, both selection
    /// strategies complete cleanly (no panic, no `MaxRoundsExceeded`),
    /// report the achieved quorum, and the runs replay bit-identically.
    #[test]
    fn chaos_crashes_and_corruption_complete_on_both_strategies() {
        let run = sample_run(64, 3, 90, NoiseModel::Noiseless, 77);
        let plan = NodeFaultPlan::new(9)
            .with_crashes(0.10, (1, 6))
            .unwrap()
            .with_corruption(0.05, 1.0)
            .unwrap();
        for strategy in [SelectionStrategy::BatcherSort, SelectionStrategy::gossip()] {
            let options = ProtocolOptions {
                strategy,
                node_faults: Some(plan),
                ..ProtocolOptions::default()
            };
            let outcome = at_one_and_four_shards(&run, options);
            assert_eq!(outcome.estimate.bits().len(), 64, "{strategy}");
            assert!(outcome.metrics.node_crashes > 0, "{strategy}");
            assert!(outcome.metrics.messages_corrupted > 0, "{strategy}");
            assert!(
                outcome.achieved_quorum() < 64 && outcome.achieved_quorum() > 32,
                "{strategy}: quorum {}",
                outcome.achieved_quorum()
            );
            assert_eq!(outcome.achieved_quorum(), 64 - outcome.missing_assignments);
            assert_eq!(outcome.agent_liveness.len(), 64);
            assert!(
                outcome.agent_liveness.iter().any(|&alive| !alive),
                "{strategy}: some agent must be down at the end"
            );
            let replay = run_protocol_chaos(&run, options).unwrap();
            assert_eq!(outcome, replay, "{strategy}: chaos must replay");
        }
    }

    /// Restarted agents rejoin passively instead of panicking on the
    /// missing gossip core (the restart hazard of the embedded selection)
    /// and are reported in the outcome.
    #[test]
    fn restarted_agents_rejoin_passively() {
        let run = sample_run(32, 2, 60, NoiseModel::Noiseless, 31);
        let plan = NodeFaultPlan::new(4)
            .with_crashes(0.25, (1, 4))
            .unwrap()
            .with_restarts(2);
        for strategy in [SelectionStrategy::BatcherSort, SelectionStrategy::gossip()] {
            let outcome = at_one_and_four_shards(
                &run,
                ProtocolOptions {
                    strategy,
                    node_faults: Some(plan),
                    ..ProtocolOptions::default()
                },
            );
            assert!(outcome.metrics.node_restarts > 0, "{strategy}");
            assert!(outcome.restarted_agents > 0, "{strategy}");
            // Everyone is back up at the end; the quorum gap is exactly
            // the restarted agents that missed their (re)assignment.
            assert!(outcome.agent_liveness.iter().all(|&alive| alive));
            assert_eq!(outcome.achieved_quorum() + outcome.missing_assignments, 32);
        }
    }

    /// At-least-once measurement delivery plus a grace window recovers
    /// the exact fault-free scores under heavy measurement loss: every
    /// retransmitted measurement is folded exactly once (dedup by query
    /// sender), so Ψᵢ matches the sequential decoder bit for bit, and
    /// both strategies leave the fold at the late score round.
    #[test]
    fn reliable_measurements_with_grace_recover_scores() {
        let run = sample_run(48, 2, 80, NoiseModel::Noiseless, 13);
        let rc = ReliableConfig::new(1, 4);
        let sequential = GreedyDecoder::new().decode(&run);
        for strategy in [SelectionStrategy::BatcherSort, SelectionStrategy::gossip()] {
            let outcome = at_one_and_four_shards(
                &run,
                ProtocolOptions {
                    strategy,
                    faults: Some(FaultConfig::new(0.15, 0.0, 3).unwrap()),
                    reliable: Some(rc),
                    grace: rc.worst_case_rounds(),
                    ..ProtocolOptions::default()
                },
            );
            assert!(outcome.metrics.messages_retransmitted > 0, "{strategy}");
            assert_eq!(outcome.estimate.scores(), sequential.scores(), "{strategy}");
        }
    }

    /// Winsorized accumulation bounds the leverage of corrupted
    /// measurements: every folded value is clamped into `[0, slots]`, so
    /// each agent's score stays within the envelope a *clean* fold could
    /// produce — `Ψᵢ ∈ [0, Σ slots]` — no matter how far the garbler
    /// skewed the payloads.
    #[test]
    fn winsorized_fold_bounds_corrupted_measurements() {
        let run = sample_run(40, 2, 70, NoiseModel::Noiseless, 55);
        let plan = NodeFaultPlan::new(2).with_corruption(0.2, 1.0).unwrap();
        let base = ProtocolOptions {
            strategy: SelectionStrategy::BatcherSort,
            node_faults: Some(plan),
            ..ProtocolOptions::default()
        };
        let raw = run_protocol_chaos(&run, base).unwrap();
        let clamped = run_protocol_chaos(
            &run,
            ProtocolOptions {
                winsorize: true,
                ..base
            },
        )
        .unwrap();
        assert!(raw.metrics.messages_corrupted > 0);
        assert_ne!(
            raw.estimate.scores(),
            clamped.estimate.scores(),
            "the clamp must have engaged on some corrupted value"
        );
        // Clean-fold envelope: Ψᵢ ∈ [0, total slots] and the centering
        // term is at most total·rate, so |score| ≤ total·max(1, rate).
        let total_slots: u64 = run
            .graph()
            .queries()
            .iter()
            .map(|q| q.total_slots() as u64)
            .sum();
        let rate = crate::greedy::second_neighborhood_rate(40, 2, run.instance().noise());
        let bound = total_slots as f64 * rate.max(1.0);
        for (i, s) in clamped.estimate.scores().iter().enumerate() {
            assert!(
                s.abs() <= bound,
                "agent {i}: winsorized score {s} escapes the clean envelope {bound}"
            );
        }
    }

    /// A tightened probe cap shrinks the gossip round budget but the
    /// protocol still completes and matches the sequential decoder on
    /// well-conditioned scores.
    #[test]
    fn tight_probe_limit_still_selects() {
        let run = sample_run(48, 3, 70, NoiseModel::gaussian(1.0), 8);
        let outcome = run_protocol_chaos(
            &run,
            options(SelectionStrategy::GossipThreshold { probe_limit: 40 }, None),
        )
        .expect("tight-cap run must complete");
        assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run));
        assert!(outcome.probes <= 40);
    }
}
