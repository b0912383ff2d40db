//! The sharded synchronous network engine.
//!
//! # Architecture
//!
//! Nodes are partitioned into `S` contiguous *shards* of (up to)
//! `⌈n / S⌉` nodes each. One round proceeds in three phases:
//!
//! 1. **Arena build** — in-flight messages (plus delay-faulted messages
//!    whose round has come) are compacted, per destination shard, into a
//!    CSR-style delivery arena: one envelope slab per shard plus a
//!    per-node `(start, end)` range table. A counting pass over the
//!    key-sorted staging buffer fixes each envelope's slab slot, and a
//!    gather pass fills the slab in slot order, so each node's segment is
//!    sorted by `(sender, send-seq)`. All buffers are reused across rounds.
//! 2. **Node step** — every shard steps its nodes in id order. Shards are
//!    independent (each reads the shared arena and writes its own
//!    outboxes), so [`step`](Network::step) runs them on the rayon pool,
//!    inline when the pool has one thread or the network one shard. The
//!    result is bit-identical for any shard or thread count.
//! 3. **Routing** — each shard's outbox drains, in shard order, into
//!    per-destination-shard staging buffers. Fault gates apply here: every
//!    decision is a pure function of the fault seed and the *message
//!    identity* `(sender, send-seq, copy)`, never of a shared RNG stream,
//!    so faulted runs are also bit-identical across shard and thread
//!    counts.
//!
//! Messages sent during round `r` are delivered at the start of round
//! `r + 1` (plus any delay faults), ordered by `(sender, send-seq)` — the
//! classic synchronous message-passing model (e.g. Santoro, *Design and
//! Analysis of Distributed Algorithms*).
//!
//! Node ids and send sequences are `u32`. A staged message is an 8-byte
//! key (send-seq, copy, reliable flag) plus an envelope of two ids and the
//! payload: 40 bytes for a 24-byte payload, 48 with the due round of a
//! delayed or retransmitted copy. The slab keeps the 32-byte envelope.
//!
//! On top of the message-fault gates, the engine supports *agent-level*
//! faults ([`Network::with_node_faults`]): fail-stop crashes filter
//! deliveries and skip the node-step phase for downed nodes, stragglers
//! add persistent per-sender delay, and corruptors garble outgoing
//! payloads. An opt-in reliable-delivery layer
//! ([`Network::with_reliability`] + [`Context::send_reliable`])
//! retransmits lost reliable messages with exponential backoff — see the
//! [`crate::faults`] module docs for the full model.

use crate::faults::{down_in, splitmix64};
use crate::metrics::NodeTraffic;
use crate::topology::{LinkFaults, Topology};
use crate::{
    Activity, Envelope, FaultConfig, MaxRoundsExceeded, Metrics, Node, NodeFaultPlan, NodeId,
    ReliableConfig,
};
use npd_telemetry::{Event, TelemetrySink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Identity of one physical message copy, beside its envelope's sender:
/// the sender's cumulative `u32` send sequence number and the copy number.
/// The triple `(sender, seq, copy)` is unique per copy; delivery order and
/// all fault decisions derive from it.
///
/// Copy numbering: transmission attempt `a` (0 = the node's own send,
/// `a ≥ 1` = the reliability layer's retransmissions) has copy `2a`; the
/// duplication-fault clone of attempt `a` has copy `2a + 1`. The parity
/// bit thus preserves the original-vs-duplicate RNG mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MsgKey {
    seq: u32,
    copy: u16,
    /// Whether the reliability layer tracks this message (set by
    /// [`Context::send_reliable`]; acted on only when a
    /// [`ReliableConfig`] is attached).
    reliable: bool,
}

/// A keyed message moving through the routing pipeline.
type Staged<M> = (MsgKey, Envelope<M>);

/// A keyed message held back until its due round (delay faults and
/// scheduled retransmissions).
type Pending<M> = (u64, MsgKey, Envelope<M>);

/// Per-round view handed to [`Node::on_round`]: the inbox, the clock, the
/// node's own id, the topology, and the send interface.
#[derive(Debug)]
pub struct Context<'a, M> {
    round: u64,
    id: NodeId,
    node_count: usize,
    inbox: &'a [Envelope<M>],
    /// Per-destination-shard outbox of this node's shard.
    outbox: &'a mut [Vec<Staged<M>>],
    shard_size: usize,
    topology: &'a Topology,
    /// The sender's next send-sequence number: its cumulative send count
    /// ([`NodeTraffic::sent`], written back after the node steps).
    next_seq: u64,
}

impl<M> Context<'_, M> {
    /// Current round number (starting at 0).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The id of the node being stepped.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The topology the network runs on.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// Number of neighbors this node may send to (loopback not counted).
    pub fn degree(&self) -> usize {
        self.topology.degree(self.id)
    }

    /// The `i`-th neighbor of this node, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree()`.
    pub fn neighbor(&self, i: usize) -> NodeId {
        self.topology.neighbor(self.id, i)
    }

    /// Messages delivered to this node at the start of the round, ordered
    /// by `(sender, send-seq)`.
    pub fn inbox(&self) -> &[Envelope<M>] {
        self.inbox
    }

    /// Sends `payload` to `dst`; it is delivered at the start of the next
    /// round. Loopback (`dst == self`) is always permitted.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range, the topology has no `self → dst`
    /// link, or this node already used up its `u32` send sequence.
    pub fn send(&mut self, dst: NodeId, payload: M) {
        self.send_inner(dst, payload, false);
    }

    /// Like [`send`](Self::send), but the message is tracked by the
    /// reliable-delivery layer: if the network has a
    /// [`ReliableConfig`] attached and this message is lost (dropped by a
    /// link fault or its destination is crashed at delivery time), the
    /// engine retransmits it after an exponential-backoff timeout, up to
    /// the configured retry budget. Without a `ReliableConfig` this
    /// behaves exactly like `send`.
    ///
    /// # Panics
    ///
    /// Panics as [`send`](Self::send) does.
    pub fn send_reliable(&mut self, dst: NodeId, payload: M) {
        self.send_inner(dst, payload, true);
    }

    fn send_inner(&mut self, dst: NodeId, payload: M, reliable: bool) {
        assert!(
            dst.0 < self.node_count,
            "Context::send: destination {dst} out of range (network has {} nodes)",
            self.node_count
        );
        assert!(
            self.topology.contains_edge(self.id, dst),
            "Context::send: topology has no link {} → {dst}",
            self.id
        );
        assert!(
            self.next_seq <= u64::from(u32::MAX),
            "Context::send: {} exceeds the u32 send-sequence space",
            self.id
        );
        let key = MsgKey {
            seq: self.next_seq as u32,
            copy: 0,
            reliable,
        };
        self.next_seq += 1;
        let (from, to) = (self.id.0 as u32, dst.0 as u32);
        self.outbox[dst.0 / self.shard_size].push((key, Envelope { from, to, payload }));
    }
}

/// A synchronous network of homogeneous nodes exchanging messages of type
/// `M`, partitioned into shards that are stepped on the rayon pool.
///
/// Build one with [`new`](Self::new) and the `with_*` builders; run it
/// with [`step`](Self::step) (one round) or
/// [`run_until_quiescent`](Self::run_until_quiescent). Nodes are stepped
/// in id order *per shard*; every message sent during round `r` is
/// delivered at the start of round `r + 1`, ordered by
/// `(sender, send-seq)`. The output is bit-identical for any shard and
/// thread count (pinned by `tests/determinism.rs` in the workspace root).
#[derive(Debug)]
pub struct Network<M, N> {
    nodes: Vec<N>,
    topology: Topology,
    shards: usize,
    shard_size: usize,
    round: u64,
    metrics: Metrics,
    /// Per-node traffic counters; `sent` is also the `seq` of the node's
    /// next send.
    traffic: Vec<NodeTraffic>,
    /// Message-fault model. Fault *decisions* carry no state at all: they
    /// are pure functions of `(seed, message identity)`.
    faults: Option<FaultConfig>,
    /// Agent-level fault schedule (crashes, stragglers, corruptors).
    node_faults: Option<NodeFaultState<M>>,
    /// Reliable-delivery (retransmission) configuration.
    reliable: Option<ReliableConfig>,
    /// Scheduled retransmissions: `(due_round, key, envelope)`. Entry
    /// *order* is shard-dependent; only the set matters, because staging
    /// is re-sorted whenever retransmissions were injected.
    retrans: Vec<Pending<M>>,
    /// Whether the last routing phase staged out-of-key-order traffic
    /// (retransmissions), forcing a sort in the next arena build.
    resort: bool,
    /// `outboxes[src][dst]`: raw sends staged during the node-step phase.
    outboxes: Vec<Vec<Vec<Staged<M>>>>,
    /// `staging[dst]`: in-flight messages awaiting delivery next round,
    /// sorted by [`MsgKey`].
    staging: Vec<Vec<Staged<M>>>,
    /// `delayed[dst]`: delay-faulted messages tagged with their due round.
    delayed: Vec<Vec<Pending<M>>>,
    /// `slabs[dst]`: the delivery arena — envelopes grouped by destination
    /// node, each segment sorted by key.
    slabs: Vec<Vec<Envelope<M>>>,
    /// Per node: `(start, end)` of its inbox segment in its shard's slab.
    ranges: Vec<(usize, usize)>,
    /// Counting-sort scratch (one slot per node of the widest shard).
    counts: Vec<usize>,
    /// Gather order of the counting sort: `perm[slot]` is the index in the
    /// staging buffer of the envelope that fills slab slot `slot`.
    perm: Vec<u32>,
    /// Telemetry handle (disabled by default). Events are recorded only
    /// from the *serial* phases of a step — never from `run_shard` — and
    /// record only shard-count-invariant quantities, so the recorded
    /// stream is bit-identical across shard and thread counts.
    sink: TelemetrySink,
}

/// Agent-level fault state: the declarative plan plus per-node schedules
/// precomputed at attach time (pure functions of the plan, so still
/// shard/thread independent).
#[derive(Debug)]
struct NodeFaultState<M> {
    plan: NodeFaultPlan,
    /// Payload garbler for corruption faults (set via
    /// [`Network::with_corruptor`]).
    corrupt: Option<fn(&mut M, u64)>,
    /// Per node: `(crash_round, restart_round)` if it crashes.
    spans: Vec<Option<(u64, Option<u64>)>>,
    /// Per node: persistent extra delay on outgoing messages.
    straggler: Vec<u64>,
    /// Crash/restart events `(round, node, is_restart)`, sorted; consumed
    /// serially at the start of each step for the counters and
    /// `on_restart` callbacks.
    events: Vec<(u64, u32, bool)>,
    next_event: usize,
}

/// Outcome of a single [`Network::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Round that was just executed.
    pub round: u64,
    /// Messages delivered at the start of this round.
    pub delivered: usize,
    /// Messages sent during this round (before fault filtering).
    pub sent: usize,
    /// Nodes that reported [`Activity::Active`].
    pub active_nodes: usize,
}

/// Outcome of [`Network::run_until_quiescent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds executed in this call.
    pub rounds: u64,
    /// Total messages delivered during this call.
    pub delivered: u64,
}

/// Default shard count of an `n`-node network ([`Network::new`]): one
/// shard per rayon worker, floored so a shard never becomes trivially
/// small (≥ 64 nodes). The result of a run is bit-identical for every
/// shard count — this only sets how much parallelism [`Network::step`] can
/// exploit.
fn recommended_shards(n: usize) -> usize {
    rayon::current_num_threads().clamp(1, (n / 64).max(1))
}

/// Dedicated RNG of one message copy: a pure function of the fault seed
/// and the copy's identity `(from, key)`, so fault decisions cannot depend
/// on shard count, thread count, or processing order.
///
/// The mapping for copies 0 and 1 (the node's send and its duplication
/// clone) is frozen — pinned fault schedules across the workspace replay
/// against it; retransmission copies (`copy ≥ 2`) mix in the copy number
/// so every attempt redraws fresh fault decisions.
fn message_rng(seed: u64, from: u32, key: MsgKey) -> SmallRng {
    let mut mixed = splitmix64(seed ^ splitmix64(u64::from(from) << 1 | u64::from(key.copy & 1)))
        ^ splitmix64(u64::from(key.seq).wrapping_add(0xA5A5_5A5A_0F0F_F0F0));
    if key.copy >= 2 {
        mixed ^= splitmix64(((key.copy as u64) << 32) ^ 0x7E7E_1234_ABCD_0001);
    }
    SmallRng::seed_from_u64(mixed)
}

/// Schedules the retransmission of a lost copy: only when the reliability
/// layer is on, the copy is a reliable original (duplicates are
/// best-effort bonus traffic and never retransmitted) and its retry budget
/// is not spent. The resend is due after the backoff of its attempt.
fn retransmit<M>(
    retrans: &mut Vec<Pending<M>>,
    reliable: Option<ReliableConfig>,
    round: u64,
    key: MsgKey,
    env: Envelope<M>,
) {
    let Some(rc) = reliable else { return };
    let attempt = key.copy >> 1;
    if key.reliable && key.copy & 1 == 0 && attempt < rc.max_retries() {
        let next = MsgKey {
            copy: key.copy + 2,
            ..key
        };
        retrans.push((round + rc.backoff(attempt), next, env));
    }
}

impl<M: Clone + Send + Sync, N: Node<M> + Send> Network<M, N> {
    /// Creates a network over the given nodes on the complete topology
    /// with no fault injection, split into one shard per rayon worker
    /// (at least 64 nodes per shard; see [`with_shards`](Self::with_shards)).
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` nodes.
    pub fn new(nodes: Vec<N>) -> Self {
        let count = nodes.len();
        assert!(
            count <= u32::MAX as usize,
            "Network: node count {count} exceeds u32 id space"
        );
        let net = Self {
            nodes,
            topology: Topology::complete(count),
            shards: 1,
            shard_size: 1,
            round: 0,
            metrics: Metrics::default(),
            traffic: vec![NodeTraffic::default(); count],
            faults: None,
            node_faults: None,
            reliable: None,
            retrans: Vec::new(),
            resort: false,
            outboxes: Vec::new(),
            staging: Vec::new(),
            delayed: Vec::new(),
            slabs: Vec::new(),
            ranges: vec![(0, 0); count],
            counts: Vec::new(),
            perm: Vec::new(),
            sink: TelemetrySink::default(),
        };
        net.with_shards(recommended_shards(count))
    }

    /// Injects message faults: `faults` is the default profile of every
    /// link (the topology's [`Topology::with_link_faults`] overrides apply
    /// per link), and its seed drives every per-message decision.
    ///
    /// # Panics
    ///
    /// Panics if the network has already executed a round.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        assert_eq!(self.round, 0, "with_faults: network already started");
        self.faults = Some(faults);
        self
    }

    /// Attaches an agent-level fault plan: fail-stop crashes (with
    /// optional restarts), stragglers, and payload corruptors. Per-node
    /// schedules are precomputed here from the plan's pure hashes, so the
    /// same plan yields the same schedule at any shard or thread count.
    ///
    /// If the plan schedules corruption, a payload garbler must also be
    /// set with [`with_corruptor`](Self::with_corruptor) before stepping.
    ///
    /// # Panics
    ///
    /// Panics if the network has already executed a round.
    #[must_use]
    pub fn with_node_faults(mut self, plan: NodeFaultPlan) -> Self {
        assert_eq!(self.round, 0, "with_node_faults: network already started");
        let n = self.nodes.len();
        let spans: Vec<Option<(u64, Option<u64>)>> = (0..n).map(|v| plan.crash_span(v)).collect();
        let straggler: Vec<u64> = (0..n).map(|v| plan.straggler_delay(v)).collect();
        let mut events: Vec<(u64, u32, bool)> = Vec::new();
        for (v, span) in spans.iter().enumerate() {
            if let Some((crash, restart)) = span {
                events.push((*crash, v as u32, false));
                if let Some(r) = restart {
                    events.push((*r, v as u32, true));
                }
            }
        }
        events.sort_unstable();
        self.node_faults = Some(NodeFaultState {
            plan,
            corrupt: None,
            spans,
            straggler,
            events,
            next_event: 0,
        });
        self
    }

    /// Sets the payload garbler used for the node-fault plan's corruption
    /// faults: `garble(&mut payload, entropy)` is called on each corrupted
    /// outgoing payload with deterministic per-message entropy.
    ///
    /// # Panics
    ///
    /// Panics if no node-fault plan is attached.
    #[must_use]
    pub fn with_corruptor(mut self, garble: fn(&mut M, u64)) -> Self {
        match self.node_faults.as_mut() {
            Some(nf) => nf.corrupt = Some(garble),
            None => panic!("with_corruptor: call with_node_faults first"),
        }
        self
    }

    /// Enables the reliable-delivery layer: messages sent with
    /// [`Context::send_reliable`] are retransmitted on loss (link drop or
    /// crashed destination) with exponential backoff, up to the retry
    /// budget. The engine stands in for the receiver's acknowledgement —
    /// it knows delivery outcomes — so the timeout models the sender's
    /// detection latency, not an extra ack message on the wire.
    ///
    /// # Panics
    ///
    /// Panics if the network has already executed a round.
    #[must_use]
    pub fn with_reliability(mut self, cfg: ReliableConfig) -> Self {
        assert_eq!(self.round, 0, "with_reliability: network already started");
        self.reliable = Some(cfg);
        self
    }

    /// Restricts communication to `topology` (default: complete).
    ///
    /// # Panics
    ///
    /// Panics if the node count differs from `topology.n()` or the network
    /// has already executed a round.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert_eq!(
            topology.n(),
            self.nodes.len(),
            "with_topology: topology size mismatch"
        );
        assert_eq!(self.round, 0, "with_topology: network already started");
        self.topology = topology;
        self
    }

    /// Partitions the nodes into `shards` contiguous shards (default: one
    /// per rayon worker, at least 64 nodes each). The result of a run is
    /// bit-identical for every shard count; shards only control how much
    /// parallelism [`step`](Self::step) can exploit.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the network has already executed a
    /// round.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "with_shards: shard count must be positive");
        assert_eq!(self.round, 0, "with_shards: network already started");
        let n = self.nodes.len();
        self.shards = shards.min(n).max(1);
        self.shard_size = n.div_ceil(self.shards).max(1);
        // `⌈n / ⌈n / S⌉⌉` can be below `S`; recompute so no shard is empty.
        self.shards = n.div_ceil(self.shard_size).max(1);
        self.resize_shard_buffers();
        self
    }

    /// Attaches a telemetry sink (default: disabled). Each round then
    /// records a `netsim`-phase span (begin/end with per-round message
    /// and fault deltas), an `in_flight` histogram sample, and per-node
    /// `inbox_len` histogram samples. Everything recorded is invariant
    /// under the shard and thread configuration — per-shard breakdowns
    /// are deliberately recorded at *node* granularity (the finest
    /// shard-invariant unit) so trace streams stay byte-identical across
    /// shard counts (contract rule 11).
    ///
    /// # Panics
    ///
    /// Panics if the network has already executed a round.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        assert_eq!(self.round, 0, "with_telemetry: network already started");
        self.sink = sink;
        self
    }

    /// The attached telemetry sink (disabled unless
    /// [`with_telemetry`](Self::with_telemetry) was called).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    fn resize_shard_buffers(&mut self) {
        let s = self.shards;
        self.outboxes = (0..s)
            .map(|_| (0..s).map(|_| Vec::new()).collect())
            .collect();
        self.staging = (0..s).map(|_| Vec::new()).collect();
        self.delayed = (0..s).map(|_| Vec::new()).collect();
        self.slabs = (0..s).map(|_| Vec::new()).collect();
        self.counts = vec![0; self.shard_size.min(self.nodes.len().max(1))];
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of shards the nodes are partitioned into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The topology the network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Shared access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// Exclusive access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.0]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Consumes the network, returning the nodes (for result extraction).
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Per-node traffic counters, indexed by node id.
    pub fn traffic(&self) -> &[NodeTraffic] {
        &self.traffic
    }

    /// Messages currently in flight (sent last round, delivered next step).
    pub fn in_flight(&self) -> usize {
        self.staging.iter().map(Vec::len).sum()
    }

    /// Delay-faulted messages still waiting for their delivery round.
    pub fn delayed(&self) -> usize {
        self.delayed.iter().map(Vec::len).sum()
    }

    /// Retransmissions scheduled by the reliability layer but not yet
    /// resent. These are *not* part of the conservation identity: the
    /// lost copy was already accounted (dropped / lost-to-crash), and the
    /// retransmission counts as a fresh send when it goes out.
    pub fn pending_retransmissions(&self) -> usize {
        self.retrans.len()
    }

    /// Consumes due crash/restart events: counts them and fires
    /// [`Node::on_restart`] for restarting nodes. Runs serially at the
    /// start of each step (event order is pre-sorted, so this is
    /// deterministic).
    fn apply_node_events(&mut self) {
        if let Some(nf) = &self.node_faults {
            assert!(
                !nf.plan.has_corruption() || nf.corrupt.is_some(),
                "NodeFaultPlan schedules corruption but no payload garbler is set; \
                 call Network::with_corruptor"
            );
        }
        loop {
            let event = match &self.node_faults {
                Some(nf)
                    if nf.next_event < nf.events.len()
                        && nf.events[nf.next_event].0 <= self.round =>
                {
                    nf.events[nf.next_event]
                }
                _ => return,
            };
            if let Some(nf) = &mut self.node_faults {
                nf.next_event += 1;
            }
            let (_, node, is_restart) = event;
            if is_restart {
                self.metrics.node_restarts += 1;
                self.nodes[node as usize].on_restart(self.round);
            } else {
                self.metrics.node_crashes += 1;
            }
        }
    }

    /// Executes one round with the shards stepped on the rayon pool (inline
    /// when the pool has one thread or the network one shard). The result
    /// is bit-identical for any shard or thread count.
    ///
    /// # Examples
    ///
    /// A counter protocol stepped round by round — every node pings its
    /// successor each round; the report counts activity:
    ///
    /// ```
    /// use npd_netsim::{Activity, Context, Network, Node, NodeId};
    ///
    /// struct Ring;
    /// impl Node<u8> for Ring {
    ///     fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
    ///         if ctx.round() < 3 {
    ///             let next = NodeId((ctx.id().0 + 1) % 4);
    ///             ctx.send(next, 1);
    ///         }
    ///         Activity::Idle
    ///     }
    /// }
    ///
    /// let mut net = Network::new(vec![Ring, Ring, Ring, Ring]).with_shards(2);
    /// let first = net.step();
    /// assert_eq!(first.round, 0);
    /// assert_eq!(first.sent, 4); // every node pinged its successor
    /// let second = net.step();
    /// assert_eq!(second.delivered, 4); // round-0 traffic arrives in round 1
    /// ```
    pub fn step(&mut self) -> StepReport {
        // Open the round's telemetry span and snapshot the metrics so
        // `finish_step` can report per-round deltas.
        let round = self.round;
        self.sink
            .emit(|| Event::begin("round").phase("netsim").round(round));
        let before = self.metrics;
        self.apply_node_events();
        let delivered = self.build_arena();
        let active_nodes = {
            let (runs, env) = self.shard_runs();
            let env = &env;
            let actives: Vec<usize> = runs
                .into_par_iter()
                .map(|mut run| env.run_shard(&mut run))
                .collect();
            actives.into_iter().sum()
        };
        let sent = self.route();
        self.finish_step(before, delivered, sent, active_nodes)
    }

    fn finish_step(
        &mut self,
        before: Metrics,
        delivered: usize,
        sent: usize,
        active_nodes: usize,
    ) -> StepReport {
        self.metrics.peak_in_flight = self.metrics.peak_in_flight.max(self.in_flight() as u64);
        let report = StepReport {
            round: self.round,
            delivered,
            sent,
            active_nodes,
        };
        self.round += 1;
        self.metrics.rounds = self.round;
        if self.sink.is_enabled() {
            self.sink.record("in_flight", self.in_flight() as u64);
            let after = self.metrics;
            self.sink.emit(|| {
                let mut event = Event::end("round")
                    .phase("netsim")
                    .round(report.round)
                    .u64("active", active_nodes as u64);
                // Per-round message/fault deltas straight off the shared
                // Metrics rows; cumulative-style rows are skipped (the
                // final `Metrics` carries them).
                for ((name, now), (_, was)) in after.as_rows().zip(before.as_rows()) {
                    if now != was && name != "rounds" && name != "peak_in_flight" {
                        event = event.u64(name, now - was);
                    }
                }
                event
            });
        }
        report
    }

    /// Phase 1: compacts staged + due delayed messages into the delivery
    /// arena (`slabs` + `ranges`), returning the delivered count.
    fn build_arena(&mut self) -> usize {
        let mut delivered = 0usize;
        let shard_size = self.shard_size;
        let n = self.nodes.len();
        for d in 0..self.shards {
            let lo = d * shard_size;
            let hi = (lo + shard_size).min(n);
            let buf = &mut self.staging[d];

            // Merge delay-faulted messages whose round has come, restoring
            // the global (sender, send-seq) order. Identities are unique, so
            // the unstable sort is deterministic. `resort` forces the sort
            // when last round's routing staged out-of-order traffic
            // (retransmissions).
            let round = self.round;
            let mut needs_sort = self.resort;
            let pending = &mut self.delayed[d];
            if !pending.is_empty() {
                let before = buf.len();
                buf.extend(
                    pending
                        .extract_if(.., |p| p.0 <= round)
                        .map(|(_, key, env)| (key, env)),
                );
                needs_sort |= buf.len() > before;
            }

            // Fail-stop filter: a delivery to a node that is down this
            // round is lost (counted, and retransmitted later if the
            // message is reliable and budget remains). Survivors keep
            // their order.
            if let Some(nf) = &self.node_faults {
                let down = |(_, env): &mut Staged<M>| down_in(nf.spans[env.to as usize], round);
                for (key, env) in buf.extract_if(.., down) {
                    self.metrics.messages_lost_to_crash += 1;
                    retransmit(&mut self.retrans, self.reliable, round, key, env);
                }
            }

            if needs_sort && !buf.is_empty() {
                buf.sort_unstable_by_key(|(key, env)| (env.from, key.seq, key.copy));
            }

            if buf.is_empty() {
                self.ranges[lo..hi].fill((0, 0));
                self.slabs[d].clear();
                continue;
            }

            // CSR build: count per destination node, prefix into ranges,
            // record the staged entry that fills each slab slot (stable in
            // key order), then gather the envelopes into the slab.
            let span = hi - lo;
            let counts = &mut self.counts[..span];
            counts.fill(0);
            for (_, env) in buf.iter() {
                counts[env.to as usize - lo] += 1;
                self.traffic[env.to as usize].received += 1;
            }
            let mut running = 0usize;
            for (v, c) in counts.iter_mut().enumerate() {
                let count = *c;
                self.ranges[lo + v] = (running, running + count);
                *c = running;
                running += count;
            }
            self.perm.resize(buf.len(), 0);
            for (i, (_, env)) in buf.iter().enumerate() {
                let local = env.to as usize - lo;
                self.perm[counts[local]] = i as u32;
                counts[local] += 1;
            }
            let slab = &mut self.slabs[d];
            slab.clear();
            slab.extend(self.perm.iter().map(|&i| buf[i as usize].1.clone()));
            buf.clear();
            delivered += slab.len();

            // Per-node inbox sizes: the finest delivery breakdown that is
            // invariant under the shard configuration (node ids don't move
            // when the shard count changes), recorded serially per shard.
            if self.sink.is_enabled() {
                for &(seg_lo, seg_hi) in &self.ranges[lo..hi] {
                    if seg_hi > seg_lo {
                        self.sink.record("inbox_len", (seg_hi - seg_lo) as u64);
                    }
                }
            }
        }
        self.resort = false;
        self.metrics.messages_delivered += delivered as u64;
        delivered
    }

    /// Borrow split for the node-step phase: one mutable run per shard
    /// plus the shared environment.
    fn shard_runs(&mut self) -> (Vec<ShardRun<'_, M, N>>, StepEnv<'_>) {
        let shard_size = self.shard_size;
        let node_count = self.nodes.len();
        let mut runs = Vec::with_capacity(self.shards);
        let mut nodes = self.nodes.as_mut_slice();
        let mut traffic = self.traffic.as_mut_slice();
        let mut ranges = self.ranges.as_slice();
        let mut slabs = self.slabs.as_slice();
        let mut outboxes = self.outboxes.as_mut_slice();
        let mut start = 0usize;
        for _ in 0..self.shards {
            let take = shard_size.min(nodes.len());
            let (node_chunk, node_rest) = nodes.split_at_mut(take);
            let (traffic_chunk, traffic_rest) = traffic.split_at_mut(take);
            let (range_chunk, range_rest) = ranges.split_at(take);
            // Invariant: `resize_shard_buffers` sizes `slabs`/`outboxes`
            // to exactly `self.shards`, and this loop runs `shards` times.
            #[allow(clippy::expect_used)]
            // xtask:allow(unwrap-audit): resize_shard_buffers sizes slabs to exactly `shards`, and this loop runs `shards` times
            let (slab_chunk, slab_rest) = slabs.split_first().expect("one slab per shard");
            #[allow(clippy::expect_used)]
            let (outbox_chunk, outbox_rest) =
                // xtask:allow(unwrap-audit): resize_shard_buffers sizes outboxes to exactly `shards`, and this loop runs `shards` times
                outboxes.split_first_mut().expect("one outbox per shard");
            runs.push(ShardRun {
                start,
                nodes: node_chunk,
                traffic: traffic_chunk,
                ranges: range_chunk,
                slab: slab_chunk,
                outbox: outbox_chunk,
            });
            nodes = node_rest;
            traffic = traffic_rest;
            ranges = range_rest;
            slabs = slab_rest;
            outboxes = outbox_rest;
            start += take;
        }
        let env = StepEnv {
            round: self.round,
            node_count,
            shard_size,
            topology: &self.topology,
            crash_spans: self
                .node_faults
                .as_ref()
                .map_or(&[][..], |nf| nf.spans.as_slice()),
        };
        (runs, env)
    }

    /// Phase 3: drains every shard outbox, in shard order, through the
    /// fault gates into the per-destination-shard staging buffers, then
    /// resends due retransmissions through the same gates. Without gates,
    /// an outbox is swapped into an empty staging buffer (the arena build
    /// empties them all) and appended to a non-empty one.
    /// Returns the number of messages sent (before fault filtering).
    fn route(&mut self) -> usize {
        let mut sent = 0usize;
        let gated = self.faults.is_some() || self.node_faults.is_some() || !self.retrans.is_empty();
        if !gated {
            for src in 0..self.shards {
                for dst in 0..self.shards {
                    let buf = &mut self.outboxes[src][dst];
                    sent += buf.len();
                    if self.staging[dst].is_empty() {
                        std::mem::swap(&mut self.staging[dst], buf);
                    } else {
                        self.staging[dst].append(buf);
                    }
                }
            }
        } else {
            let (default_profile, seed) = match self.faults {
                Some(cfg) => (cfg.link_faults(), cfg.seed()),
                // Node-fault-only network: links are perfectly reliable,
                // the node plan's seed drives any per-link overrides.
                None => (
                    LinkFaults::RELIABLE,
                    self.node_faults.as_ref().map_or(0, |nf| nf.plan.seed()),
                ),
            };
            let round = self.round;
            // Due retransmissions are extracted before the router borrows:
            // reschedules (a retransmission lost again) push fresh entries
            // with due > round, so the set drained here is final.
            let due: Vec<Staged<M>> = self
                .retrans
                .extract_if(.., |p| p.0 <= round)
                .map(|(_, key, env)| (key, env))
                .collect();
            let mut router = Router {
                topology: &self.topology,
                node_faults: self.node_faults.as_ref(),
                default_profile,
                seed,
                reliable: self.reliable,
                round,
                shard_size: self.shard_size,
                staging: &mut self.staging,
                delayed: &mut self.delayed,
                retrans: &mut self.retrans,
                metrics: &mut self.metrics,
            };
            for src in 0..self.shards {
                for dst in 0..self.shards {
                    let buf = &mut self.outboxes[src][dst];
                    sent += buf.len();
                    for (key, env) in buf.drain(..) {
                        router.route(key, env);
                    }
                }
            }
            // Retransmissions: counted as fresh sends, injected through
            // the same gates. Their staging order is arbitrary, so the
            // next arena build re-sorts.
            if !due.is_empty() {
                self.resort = true;
                sent += due.len();
                router.metrics.messages_retransmitted += due.len() as u64;
                for (key, env) in due {
                    router.route(key, env);
                }
            }
        }
        self.metrics.messages_sent += sent as u64;
        self.metrics.payload_bytes_sent += (sent * std::mem::size_of::<M>()) as u64;
        sent
    }

    /// Runs rounds until the network quiesces: no messages in flight,
    /// delayed or awaiting retransmission, and all nodes idle.
    ///
    /// At least one round is always executed, so protocols that initiate
    /// work in round 0 make progress.
    ///
    /// # Errors
    ///
    /// Returns [`MaxRoundsExceeded`] if quiescence is not reached within
    /// `max_rounds` rounds (counted within this call).
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> Result<RunReport, MaxRoundsExceeded> {
        let mut rounds = 0u64;
        let mut delivered = 0u64;
        loop {
            if rounds >= max_rounds {
                return Err(MaxRoundsExceeded {
                    max_rounds,
                    in_flight: self.in_flight() + self.delayed() + self.retrans.len(),
                });
            }
            let report = self.step();
            rounds += 1;
            delivered += report.delivered as u64;
            if self.in_flight() == 0
                && self.delayed() == 0
                && self.retrans.is_empty()
                && report.active_nodes == 0
            {
                return Ok(RunReport { rounds, delivered });
            }
        }
    }
}

/// One shard's mutable slice of the network during the node-step phase.
struct ShardRun<'a, M, N> {
    start: usize,
    nodes: &'a mut [N],
    traffic: &'a mut [NodeTraffic],
    ranges: &'a [(usize, usize)],
    slab: &'a [Envelope<M>],
    outbox: &'a mut Vec<Vec<Staged<M>>>,
}

/// Read-only environment shared by every shard during the step phase.
struct StepEnv<'a> {
    round: u64,
    node_count: usize,
    shard_size: usize,
    topology: &'a Topology,
    /// Per-node crash schedules (empty without node faults).
    crash_spans: &'a [Option<(u64, Option<u64>)>],
}

impl StepEnv<'_> {
    /// Whether the node is crashed (and not yet restarted) this round.
    fn down(&self, node: usize) -> bool {
        self.crash_spans
            .get(node)
            .is_some_and(|&span| down_in(span, self.round))
    }

    /// Steps one shard's nodes in id order; returns its active-node count.
    fn run_shard<M, N: Node<M>>(&self, run: &mut ShardRun<'_, M, N>) -> usize {
        let mut active = 0usize;
        for (i, node) in run.nodes.iter_mut().enumerate() {
            // Fail-stop: a downed node executes nothing (its inbox was
            // already discarded during the arena build).
            if self.down(run.start + i) {
                continue;
            }
            let (start, end) = run.ranges[i];
            let seq_before = run.traffic[i].sent;
            let mut ctx = Context {
                round: self.round,
                id: NodeId(run.start + i),
                node_count: self.node_count,
                inbox: &run.slab[start..end],
                outbox: run.outbox,
                shard_size: self.shard_size,
                topology: self.topology,
                next_seq: seq_before,
            };
            if node.on_round(&mut ctx) == Activity::Active {
                active += 1;
            }
            if ctx.next_seq > seq_before {
                run.traffic[i].sent = ctx.next_seq;
                run.traffic[i].active_send_rounds += 1;
            }
        }
        active
    }
}

/// The routing phase of one round: the gate constants of the round plus
/// the staging, delay and retransmission sinks the gates write to.
struct Router<'a, M> {
    topology: &'a Topology,
    node_faults: Option<&'a NodeFaultState<M>>,
    /// Profile of every link the topology does not override.
    default_profile: LinkFaults,
    seed: u64,
    reliable: Option<ReliableConfig>,
    round: u64,
    shard_size: usize,
    staging: &'a mut [Vec<Staged<M>>],
    delayed: &'a mut [Vec<Pending<M>>],
    retrans: &'a mut Vec<Pending<M>>,
    metrics: &'a mut Metrics,
}

impl<M: Clone> Router<'_, M> {
    /// Routes one outbound message copy through corruption, duplication,
    /// drop, and delay gates.
    fn route(&mut self, key: MsgKey, mut env: Envelope<M>) {
        let (from, to) = (env.from, env.to as usize);
        let profile = self
            .topology
            .link_faults(env.from(), NodeId(to))
            .copied()
            .unwrap_or(self.default_profile);
        let straggler = self.node_faults.map_or(0, |nf| nf.straggler[from as usize]);
        // Corruption garbles the node's original emission (copy 0) only:
        // duplicates below clone the already-garbled payload, and
        // retransmissions resend the payload exactly as first transmitted.
        if key.copy == 0 {
            if let Some(nf) = self.node_faults {
                if let Some(garble) = nf.corrupt {
                    let seq = u64::from(key.seq);
                    if nf.plan.corrupts_message(from, seq) {
                        garble(&mut env.payload, nf.plan.corruption_entropy(from, seq));
                        self.metrics.messages_corrupted += 1;
                    }
                }
            }
        }
        // Reliable links with a punctual sender skip the gate machinery
        // entirely — behavior-identical, since every decision is a pure
        // per-message function with zero probabilities.
        if profile.is_reliable() && straggler == 0 {
            self.staging[to / self.shard_size].push((key, env));
            return;
        }
        // The duplicate is decided first, from the original's RNG, so it
        // exists independently of the original's drop/delay fate; both copies
        // then pass the gates independently.
        let mut rng = message_rng(self.seed, from, key);
        let dup_draw = rng.gen::<f64>();
        let copy = (dup_draw < profile.dup_prob).then(|| {
            self.metrics.messages_duplicated += 1;
            let ckey = MsgKey {
                copy: key.copy | 1,
                ..key
            };
            (ckey, env.clone())
        });
        self.gate(rng, &profile, straggler, key, env);
        if let Some((ckey, cenv)) = copy {
            let mut crng = message_rng(self.seed, from, ckey);
            let _ = crng.gen::<f64>(); // dup slot, unused on copies
            self.gate(crng, &profile, straggler, ckey, cenv);
        }
    }

    /// Applies drop and delay gates to one message copy and stages it. A
    /// dropped copy goes to [`retransmit`].
    fn gate(
        &mut self,
        mut rng: SmallRng,
        profile: &LinkFaults,
        straggler_extra: u64,
        key: MsgKey,
        env: Envelope<M>,
    ) {
        // Both gate draws happen unconditionally, before the data-dependent
        // drop return below, so the per-message stream consumes a fixed number
        // of variates regardless of the drop outcome. Surviving copies see the
        // same (drop, delay) values in the same order as before; dropped
        // copies burn one extra variate from an rng that is discarded here.
        let drop_draw = rng.gen::<f64>();
        let delay_draw = if profile.max_delay > 0 {
            rng.gen_range(0..=profile.max_delay)
        } else {
            0
        };
        if drop_draw < profile.drop_prob {
            self.metrics.messages_dropped += 1;
            retransmit(self.retrans, self.reliable, self.round, key, env);
            return;
        }
        let extra = straggler_extra + delay_draw;
        let dst = env.to as usize / self.shard_size;
        if extra > 0 {
            self.metrics.messages_delayed += 1;
            self.delayed[dst].push((self.round + 1 + extra, key, env));
        } else {
            self.staging[dst].push((key, env));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node that floods a fixed payload to everyone in round 0 and counts
    /// what it receives.
    struct Flood {
        received: usize,
    }

    impl Node<u8> for Flood {
        fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
            if ctx.round() == 0 {
                for peer in 0..ctx.node_count() {
                    if peer != ctx.id().0 {
                        ctx.send(NodeId(peer), 1);
                    }
                }
            }
            self.received += ctx.inbox().len();
            Activity::Idle
        }
    }

    fn flood_net(n: usize) -> Network<u8, Flood> {
        Network::new((0..n).map(|_| Flood { received: 0 }).collect())
    }

    #[test]
    fn flood_delivers_all_pairs() {
        let mut net = flood_net(5);
        let report = net.run_until_quiescent(10).unwrap();
        assert_eq!(report.rounds, 2);
        assert_eq!(net.metrics().messages_sent, 20);
        assert_eq!(net.metrics().messages_delivered, 20);
        for node in net.nodes() {
            assert_eq!(node.received, 4);
        }
    }

    #[test]
    fn metrics_track_bytes_and_peak() {
        let mut net = flood_net(3);
        net.run_until_quiescent(10).unwrap();
        assert_eq!(net.metrics().payload_bytes_sent, 6); // 6 messages × 1 byte
        assert_eq!(net.metrics().peak_in_flight, 6);
    }

    #[test]
    fn per_node_traffic_is_tracked() {
        let mut net = flood_net(4);
        net.run_until_quiescent(10).unwrap();
        for t in net.traffic() {
            assert_eq!(t.sent, 3);
            assert_eq!(t.received, 3);
            assert_eq!(t.active_send_rounds, 1);
        }
    }

    #[test]
    fn dropped_messages_do_not_count_as_received() {
        let cfg = FaultConfig::new(1.0, 0.0, 1).unwrap();
        let mut net = flood_net(3).with_faults(cfg);
        net.run_until_quiescent(10).unwrap();
        for t in net.traffic() {
            assert_eq!(t.sent, 2);
            assert_eq!(t.received, 0);
        }
    }

    #[test]
    fn empty_network_quiesces_immediately() {
        let mut net: Network<u8, Flood> = Network::new(vec![]);
        let report = net.run_until_quiescent(5).unwrap();
        assert_eq!(report.rounds, 1);
        assert!(net.is_empty());
    }

    #[test]
    fn max_rounds_is_enforced() {
        /// A node that stays active forever.
        struct Restless;
        impl Node<u8> for Restless {
            fn on_round(&mut self, _ctx: &mut Context<'_, u8>) -> Activity {
                Activity::Active
            }
        }
        let mut net = Network::new(vec![Restless]);
        let err = net.run_until_quiescent(7).unwrap_err();
        assert_eq!(err.max_rounds, 7);
        assert_eq!(err.in_flight, 0);
        assert!(err.to_string().contains("did not quiesce"));
    }

    #[test]
    fn drop_all_faults_suppress_delivery() {
        let cfg = FaultConfig::new(1.0, 0.0, 1).unwrap();
        let mut net = flood_net(4).with_faults(cfg);
        net.run_until_quiescent(10).unwrap();
        assert_eq!(net.metrics().messages_dropped, 12);
        assert_eq!(net.metrics().messages_delivered, 0);
        for node in net.nodes() {
            assert_eq!(node.received, 0);
        }
    }

    #[test]
    fn duplicate_all_faults_double_delivery() {
        let cfg = FaultConfig::new(0.0, 1.0, 1).unwrap();
        let mut net = flood_net(3).with_faults(cfg);
        net.run_until_quiescent(10).unwrap();
        assert_eq!(net.metrics().messages_duplicated, 6);
        for node in net.nodes() {
            assert_eq!(node.received, 4); // 2 senders × 2 copies
        }
    }

    /// The drop gate applies to every copy independently: with certain
    /// duplication *and* certain loss, every original is duplicated and
    /// every copy (original + duplicate) is dropped. The old engine
    /// short-circuited duplication behind the drop gate and never dropped
    /// the copy, under-applying `drop_prob`.
    #[test]
    fn duplicates_pass_the_drop_gate_independently() {
        let cfg = FaultConfig::new(1.0, 1.0, 3).unwrap();
        let mut net = flood_net(4).with_faults(cfg);
        net.run_until_quiescent(10).unwrap();
        let m = net.metrics();
        assert_eq!(m.messages_sent, 12);
        assert_eq!(m.messages_duplicated, 12);
        assert_eq!(m.messages_dropped, 24);
        assert_eq!(m.messages_delivered, 0);
        assert!(m.conserves(net.in_flight(), net.delayed()));
    }

    /// Under partial drop + duplication, the per-copy survival rate is
    /// (1 − p_drop) for originals *and* duplicates, so the delivery count
    /// concentrates near sent · (1 + p_dup)(1 − p_drop).
    #[test]
    fn drop_rate_applies_to_duplicates_in_aggregate() {
        let cfg = FaultConfig::new(0.5, 1.0, 11).unwrap();
        let n = 40;
        let mut net = flood_net(n).with_faults(cfg);
        net.run_until_quiescent(10).unwrap();
        let m = net.metrics();
        let sent = m.messages_sent as f64;
        assert_eq!(m.messages_duplicated as f64, sent);
        // 2 · sent copies, each dropped with probability 0.5.
        let copies = 2.0 * sent;
        assert!(
            (m.messages_dropped as f64 - copies / 2.0).abs() < copies / 8.0,
            "dropped {} of {copies} copies",
            m.messages_dropped
        );
        assert!(m.conserves(net.in_flight(), net.delayed()));
    }

    #[test]
    fn fault_rng_is_deterministic() {
        let run = |seed: u64| {
            let cfg = FaultConfig::new(0.5, 0.0, seed).unwrap();
            let mut net = flood_net(10).with_faults(cfg);
            net.run_until_quiescent(10).unwrap();
            net.metrics().messages_dropped
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn messages_deliver_in_sender_order() {
        /// Node 0 sends a sequence to node 1; node 1 records payload order.
        struct Seq {
            log: Vec<u8>,
        }
        impl Node<u8> for Seq {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                if ctx.round() == 0 && ctx.id().0 == 0 {
                    for v in 0..5 {
                        ctx.send(NodeId(1), v);
                    }
                }
                for env in ctx.inbox() {
                    self.log.push(env.payload);
                }
                Activity::Idle
            }
        }
        let mut net = Network::new(vec![Seq { log: vec![] }, Seq { log: vec![] }]);
        net.run_until_quiescent(5).unwrap();
        assert_eq!(net.node(NodeId(1)).log, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_node_panics() {
        struct Bad;
        impl Node<u8> for Bad {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                ctx.send(NodeId(99), 0);
                Activity::Idle
            }
        }
        let mut net = Network::new(vec![Bad]);
        net.step();
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn send_across_missing_link_panics() {
        struct Hop;
        impl Node<u8> for Hop {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                ctx.send(NodeId(2), 0); // ring(4): 0 → 2 is not an edge
                Activity::Idle
            }
        }
        let mut net = Network::new(vec![Hop, Hop, Hop, Hop]).with_topology(Topology::ring(4));
        net.step();
    }

    #[test]
    fn into_nodes_returns_final_state() {
        let mut net = flood_net(2);
        net.run_until_quiescent(5).unwrap();
        let nodes = net.into_nodes();
        assert_eq!(nodes.len(), 2);
        assert!(nodes.iter().all(|n| n.received == 1));
    }

    #[test]
    fn step_report_fields() {
        let mut net = flood_net(3);
        let r0 = net.step();
        assert_eq!(r0.round, 0);
        assert_eq!(r0.delivered, 0);
        assert_eq!(r0.sent, 6);
        let r1 = net.step();
        assert_eq!(r1.round, 1);
        assert_eq!(r1.delivered, 6);
        assert_eq!(r1.sent, 0);
    }

    /// Delayed messages are eventually delivered, totals balance, and the
    /// network still quiesces.
    #[test]
    fn delay_faults_deliver_eventually() {
        let faults = FaultConfig::new(0.0, 0.0, 5).unwrap().with_max_delay(4);
        let nodes = (0..5).map(|_| Flood { received: 0 }).collect();
        let mut net: Network<u8, Flood> = Network::new(nodes).with_faults(faults);
        let report = net.run_until_quiescent(50).unwrap();
        assert_eq!(net.metrics().messages_sent, 20);
        assert_eq!(net.metrics().messages_delivered, 20);
        assert!(net.metrics().messages_delayed > 0, "no message was delayed");
        assert!(report.rounds > 2, "delays must stretch the run");
        assert_eq!(net.delayed(), 0);
        for node in net.nodes() {
            assert_eq!(node.received, 4);
        }
    }

    /// Delay composes with duplication: every copy arrives exactly once
    /// per duplication decision.
    #[test]
    fn delay_composes_with_duplication() {
        let faults = FaultConfig::new(0.0, 1.0, 9).unwrap().with_max_delay(2);
        let nodes = (0..3).map(|_| Flood { received: 0 }).collect();
        let mut net: Network<u8, Flood> = Network::new(nodes).with_faults(faults);
        net.run_until_quiescent(30).unwrap();
        // 6 sends, each duplicated once → 12 deliveries.
        assert_eq!(net.metrics().messages_delivered, 12);
        for node in net.nodes() {
            assert_eq!(node.received, 4);
        }
    }

    /// A node that sends a numbered burst to node 0 every round for three
    /// rounds; node 0 logs (sender, counter) pairs per round.
    struct Burst {
        counter: u8,
        log: Vec<Vec<(usize, u8)>>,
    }
    impl Node<(usize, u8)> for Burst {
        fn on_round(&mut self, ctx: &mut Context<'_, (usize, u8)>) -> Activity {
            if !ctx.inbox().is_empty() {
                self.log
                    .push(ctx.inbox().iter().map(|e| e.payload).collect());
            }
            if ctx.id().0 != 0 && ctx.round() < 3 {
                for _ in 0..2 {
                    ctx.send(NodeId(0), (ctx.id().0, self.counter));
                    self.counter += 1;
                }
                return Activity::Active;
            }
            Activity::Idle
        }
    }

    fn burst_net(faults: Option<FaultConfig>, shards: usize) -> Network<(usize, u8), Burst> {
        let nodes: Vec<Burst> = (0..5)
            .map(|_| Burst {
                counter: 0,
                log: Vec::new(),
            })
            .collect();
        let net = Network::new(nodes).with_shards(shards);
        match faults {
            None => net,
            Some(cfg) => net.with_faults(cfg),
        }
    }

    /// Regression for the delayed-delivery ordering bug: delayed messages
    /// used to be appended to inboxes in fault-RNG draw order, violating
    /// the documented (sender, send-seq) contract. Every per-round inbox
    /// must now be sorted by (sender, send counter), and a delayed run
    /// must replay identically.
    #[test]
    fn delayed_deliveries_merge_in_sender_seq_order() {
        let faults = FaultConfig::new(0.0, 0.0, 41).unwrap().with_max_delay(3);
        let run = || {
            let mut net = burst_net(Some(faults), 1);
            net.run_until_quiescent(30).unwrap();
            assert!(net.metrics().messages_delayed > 0, "no delays drawn");
            net.node(NodeId(0)).log.clone()
        };
        let log = run();
        for (r, inbox) in log.iter().enumerate() {
            for w in inbox.windows(2) {
                assert!(
                    w[0] < w[1],
                    "round {r}: inbox not sorted by (sender, seq): {inbox:?}"
                );
            }
        }
        assert_eq!(log, run(), "delayed run did not replay identically");
    }

    /// The engine's core determinism claim: identical delivery logs and
    /// metrics for any shard count, with and without faults.
    #[test]
    fn output_is_bit_identical_across_shard_counts() {
        let configs: [Option<FaultConfig>; 2] = [
            None,
            Some(FaultConfig::new(0.2, 0.3, 7).unwrap().with_max_delay(2)),
        ];
        for faults in configs {
            let run = |shards: usize| {
                let mut net = burst_net(faults, shards);
                net.run_until_quiescent(40).unwrap();
                (
                    net.node(NodeId(0)).log.clone(),
                    *net.metrics(),
                    net.traffic().to_vec(),
                )
            };
            let reference = run(1);
            for shards in [2usize, 3, 5, 8] {
                assert_eq!(run(shards), reference, "shards={shards}");
            }
        }
    }

    /// Destinations of `id`'s sends in `round`, in send order: 0–3 sends
    /// to each of four hashed destinations (never `id` itself).
    fn scatter_plan(round: u64, id: usize, n: usize) -> Vec<usize> {
        let mut plan = Vec::new();
        for i in 0..4u64 {
            let h = splitmix64((round << 40) ^ ((id as u64) << 8) ^ i);
            let dst = (id + 1 + (h as usize) % (n - 1)) % n;
            plan.extend(std::iter::repeat_n(dst, (h >> 32) as usize % 4));
        }
        plan
    }

    /// Sends its `scatter_plan` for rounds 0–2, payload `(sender,
    /// counter)`, and logs its inbox every round.
    struct Scatter {
        counter: u32,
        log: Vec<Vec<(usize, u32)>>,
    }
    impl Node<(usize, u32)> for Scatter {
        fn on_round(&mut self, ctx: &mut Context<'_, (usize, u32)>) -> Activity {
            self.log
                .push(ctx.inbox().iter().map(|e| e.payload).collect());
            if ctx.round() < 3 {
                for dst in scatter_plan(ctx.round(), ctx.id().0, ctx.node_count()) {
                    ctx.send(NodeId(dst), (ctx.id().0, self.counter));
                    self.counter += 1;
                }
            }
            Activity::Idle
        }
    }

    /// Every inbox of a many-to-many exchange equals a brute-force model:
    /// node `v`'s inbox in round `r + 1` is every round-`r` send to `v`,
    /// ordered by sender and then by send order. At n = 50, 3 and 7
    /// shards leave a shorter last shard.
    #[test]
    fn every_inbox_matches_the_sender_order_model() {
        let n = 50;
        let mut expected = vec![vec![Vec::new(); 4]; n];
        let mut counters = vec![0u32; n];
        for round in 0..3u64 {
            for (id, counter) in counters.iter_mut().enumerate() {
                for dst in scatter_plan(round, id, n) {
                    expected[dst][round as usize + 1].push((id, *counter));
                    *counter += 1;
                }
            }
        }
        let sent: u32 = counters.iter().sum();
        for shards in [1usize, 2, 3, 7] {
            let nodes = (0..n)
                .map(|_| Scatter {
                    counter: 0,
                    log: Vec::new(),
                })
                .collect();
            let mut net = Network::new(nodes).with_shards(shards);
            for _ in 0..4 {
                net.step();
            }
            assert_eq!(net.metrics().messages_delivered, u64::from(sent));
            for (v, node) in net.nodes().iter().enumerate() {
                assert_eq!(node.log, expected[v], "shards={shards} node={v}");
            }
        }
    }

    /// Per-link fault overrides: a single dead link drops exactly its own
    /// traffic.
    #[test]
    fn link_fault_override_kills_one_link() {
        let dead = LinkFaults {
            drop_prob: 1.0,
            dup_prob: 0.0,
            max_delay: 0,
        };
        let topology = Topology::complete(4).with_link_faults(NodeId(0), NodeId(1), dead);
        let mut net = flood_net(4)
            .with_topology(topology)
            .with_faults(FaultConfig::new(0.0, 0.0, 1).unwrap());
        net.run_until_quiescent(10).unwrap();
        assert_eq!(net.metrics().messages_dropped, 1);
        assert_eq!(net.node(NodeId(1)).received, 2); // lost exactly 0 → 1
        assert_eq!(net.node(NodeId(0)).received, 3);
        assert_eq!(net.node(NodeId(2)).received, 3);
    }

    /// Regression: a duplicating link override on a network with only a
    /// node-fault plan panicked on its first routed message, because that
    /// route had no way to copy the payload. Without any fault model the
    /// override is ignored.
    #[test]
    fn duplicating_link_override_works_with_node_faults_only() {
        /// Node 0 sends one payload to node 1 in round 0.
        struct Once;
        impl Node<u8> for Once {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                if ctx.round() == 0 && ctx.id().0 == 0 {
                    ctx.send(NodeId(1), 7);
                }
                Activity::Idle
            }
        }
        let dup = LinkFaults {
            drop_prob: 0.0,
            dup_prob: 1.0,
            max_delay: 0,
        };
        let topology = || Topology::complete(2).with_link_faults(NodeId(0), NodeId(1), dup);
        let mut net = Network::new(vec![Once, Once])
            .with_topology(topology())
            .with_node_faults(NodeFaultPlan::new(3));
        net.run_until_quiescent(10).unwrap();
        let m = net.metrics();
        assert_eq!(m.messages_sent, 1);
        assert_eq!(m.messages_duplicated, 1);
        assert_eq!(m.messages_delivered, 2);
        assert!(m.conserves(0, 0));

        let mut plain = Network::new(vec![Once, Once]).with_topology(topology());
        plain.run_until_quiescent(10).unwrap();
        assert_eq!(plain.metrics().messages_sent, 1);
        assert_eq!(plain.metrics().messages_delivered, 1);
    }

    #[test]
    fn ring_topology_restricts_and_serves_neighbors() {
        /// Sends its id to every neighbor each of the first two rounds.
        struct NeighborCount {
            received: usize,
        }
        impl Node<u64> for NeighborCount {
            fn on_round(&mut self, ctx: &mut Context<'_, u64>) -> Activity {
                self.received += ctx.inbox().len();
                if ctx.round() < 2 {
                    for i in 0..ctx.degree() {
                        let peer = ctx.neighbor(i);
                        ctx.send(peer, ctx.id().0 as u64);
                    }
                    return Activity::Active;
                }
                Activity::Idle
            }
        }
        let nodes: Vec<NeighborCount> = (0..6).map(|_| NeighborCount { received: 0 }).collect();
        let mut net = Network::new(nodes)
            .with_topology(Topology::ring(6))
            .with_shards(3);
        net.run_until_quiescent(10).unwrap();
        for (i, node) in net.nodes().iter().enumerate() {
            assert_eq!(node.received, 4, "node {i}"); // 2 neighbors × 2 rounds
        }
    }

    #[test]
    fn message_rng_distinguishes_copies() {
        let key = |copy: u16| MsgKey {
            seq: 5,
            copy,
            reliable: false,
        };
        let draw = |copy: u16| message_rng(99, 1, key(copy)).gen::<u64>();
        assert_ne!(draw(0), draw(1));
        // Retransmission attempts redraw fresh decisions.
        assert_ne!(draw(0), draw(2));
        assert_ne!(draw(2), draw(4));
        // The reliable flag never shifts the fault mapping.
        let mut reliable = key(0);
        reliable.reliable = true;
        assert_eq!(draw(0), message_rng(99, 1, reliable).gen::<u64>());
    }

    /// The bytes each broadcast message occupies between its send and its
    /// delivery: an 8-byte key plus the envelope, which is two `u32` ids
    /// and, here, a 24-byte payload like the protocol's message. A delayed
    /// or retransmitted copy also carries its due round.
    #[test]
    fn staged_entry_sizes_are_pinned() {
        type Payload = [u64; 3];
        assert_eq!(std::mem::size_of::<MsgKey>(), 8);
        assert_eq!(std::mem::size_of::<Envelope<Payload>>(), 32);
        assert_eq!(std::mem::size_of::<Staged<Payload>>(), 40);
        assert_eq!(std::mem::size_of::<Pending<Payload>>(), 48);
    }

    /// The send sequence is a `u32`: a node's send at sequence `u32::MAX`
    /// still goes out, and its next send panics instead of wrapping onto
    /// the identity of its first message.
    #[test]
    #[should_panic(expected = "node#0 exceeds the u32 send-sequence space")]
    fn send_sequence_overflow_panics() {
        /// Node 0 sends to node 1 every round.
        struct Chatter;
        impl Node<u8> for Chatter {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(1), 7);
                }
                Activity::Idle
            }
        }
        let mut net = Network::new(vec![Chatter, Chatter]);
        net.traffic[0].sent = u64::from(u32::MAX);
        assert_eq!(net.step().sent, 1);
        assert_eq!(net.staging[0][0].0.seq, u32::MAX);
        assert_eq!(net.traffic()[0].sent, 1 << 32);
        net.step();
    }

    /// Nodes that crash before their send round go silent; deliveries to
    /// a downed node are counted as lost-to-crash and conservation holds.
    #[test]
    fn crashed_nodes_lose_traffic_and_conserve() {
        // All 4 nodes crash at round 1 permanently: round-0 floods are
        // sent, but every delivery (due round 1) is lost.
        let plan = NodeFaultPlan::new(5).with_crashes(1.0, (1, 1)).unwrap();
        let nodes: Vec<Flood> = (0..4).map(|_| Flood { received: 0 }).collect();
        let mut net: Network<u8, Flood> = Network::new(nodes).with_node_faults(plan);
        net.run_until_quiescent(10).unwrap();
        let m = *net.metrics();
        assert_eq!(m.messages_sent, 12);
        assert_eq!(m.messages_lost_to_crash, 12);
        assert_eq!(m.messages_delivered, 0);
        assert_eq!(m.node_crashes, 4);
        assert_eq!(m.node_restarts, 0);
        assert!(m.conserves(net.in_flight(), net.delayed()));
        for node in net.nodes() {
            assert_eq!(node.received, 0);
        }
    }

    /// A node with a restart schedule gets `on_restart` called and is
    /// stepped again after the outage.
    #[test]
    fn restart_wipes_state_and_resumes_stepping() {
        /// Records every round it executes plus restart notifications.
        struct Diary {
            rounds: Vec<u64>,
            restarts: Vec<u64>,
        }
        impl Node<u8> for Diary {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                self.rounds.push(ctx.round());
                if ctx.round() < 8 {
                    Activity::Active
                } else {
                    Activity::Idle
                }
            }
            fn on_restart(&mut self, round: u64) {
                self.restarts.push(round);
                self.rounds.clear(); // wiped state
            }
        }
        let plan = NodeFaultPlan::new(3)
            .with_crashes(1.0, (2, 2))
            .unwrap()
            .with_restarts(3);
        let nodes = vec![Diary {
            rounds: vec![],
            restarts: vec![],
        }];
        let mut net: Network<u8, Diary> = Network::new(nodes).with_node_faults(plan);
        for _ in 0..9 {
            net.step();
        }
        let diary = net.node(NodeId(0));
        assert_eq!(diary.restarts, vec![5]);
        // Rounds 2–4 skipped (down), state wiped at 5, then 5..=8 run.
        assert_eq!(diary.rounds, vec![5, 6, 7, 8]);
        assert_eq!(net.metrics().node_crashes, 1);
        assert_eq!(net.metrics().node_restarts, 1);
    }

    /// Straggler senders delay *all* their traffic by the configured
    /// extra rounds; everything still arrives and conservation holds.
    #[test]
    fn stragglers_delay_but_deliver() {
        let plan = NodeFaultPlan::new(8).with_stragglers(1.0, 3).unwrap();
        let nodes: Vec<Flood> = (0..4).map(|_| Flood { received: 0 }).collect();
        let mut net: Network<u8, Flood> = Network::new(nodes).with_node_faults(plan);
        let report = net.run_until_quiescent(20).unwrap();
        assert_eq!(net.metrics().messages_delivered, 12);
        assert_eq!(net.metrics().messages_delayed, 12);
        assert!(report.rounds >= 4, "straggler delay must stretch the run");
        assert!(net.metrics().conserves(net.in_flight(), net.delayed()));
        for node in net.nodes() {
            assert_eq!(node.received, 3);
        }
    }

    /// Corruptor nodes garble payloads deterministically; the messages
    /// still arrive (corruption is not loss) and are counted.
    #[test]
    fn corruptors_garble_payloads_deterministically() {
        let run = || {
            let plan = NodeFaultPlan::new(6).with_corruption(1.0, 0.5).unwrap();
            let nodes: Vec<Flood> = (0..4).map(|_| Flood { received: 0 }).collect();
            let mut net: Network<u8, Flood> = Network::new(nodes)
                .with_node_faults(plan)
                .with_corruptor(|payload, entropy| *payload ^= entropy as u8);
            net.run_until_quiescent(10).unwrap();
            (
                net.metrics().messages_corrupted,
                net.nodes().iter().map(|n| n.received).collect::<Vec<_>>(),
            )
        };
        let (corrupted, received) = run();
        assert!(corrupted > 0, "some payloads must be garbled");
        assert!(corrupted < 12, "per-message draw should not garble all");
        assert_eq!(received, vec![3, 3, 3, 3], "corruption is not loss");
        assert_eq!(run(), (corrupted, received), "must replay identically");
    }

    #[test]
    #[should_panic(expected = "no payload garbler")]
    fn corruption_without_garbler_panics() {
        let plan = NodeFaultPlan::new(1).with_corruption(0.5, 0.5).unwrap();
        let mut net: Network<u8, Flood> =
            Network::new(vec![Flood { received: 0 }]).with_node_faults(plan);
        net.step();
    }

    /// The reliability layer retransmits a dropped reliable message until
    /// it gets through, with the retry budget bounding the attempts.
    #[test]
    fn reliable_sends_survive_heavy_loss() {
        /// Node 0 reliably sends one payload to node 1 in round 0.
        struct OneShot {
            got: Vec<u8>,
        }
        impl Node<u8> for OneShot {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                if ctx.round() == 0 && ctx.id().0 == 0 {
                    ctx.send_reliable(NodeId(1), 42);
                }
                for env in ctx.inbox() {
                    self.got.push(env.payload);
                }
                Activity::Idle
            }
        }
        // Find a seed where the first two copies drop but a retry lands.
        let outcome = |seed: u64, retries: u16| {
            let cfg = FaultConfig::new(0.7, 0.0, seed).unwrap();
            let nodes = vec![OneShot { got: vec![] }, OneShot { got: vec![] }];
            let mut net = Network::new(nodes)
                .with_faults(cfg)
                .with_reliability(ReliableConfig::new(2, retries));
            // Budget covers the full exponential backoff chain:
            // 2 + 4 + … + 64 ≈ 126 rounds for six retries.
            net.run_until_quiescent(200).unwrap();
            (
                net.node(NodeId(1)).got.clone(),
                net.metrics().messages_retransmitted,
            )
        };
        let mut saw_retry_success = false;
        for seed in 0..40 {
            let (got, retrans) = outcome(seed, 6);
            if !got.is_empty() && retrans > 0 {
                saw_retry_success = true;
                assert_eq!(got, vec![42]);
            }
        }
        assert!(saw_retry_success, "no seed exercised a successful retry");
        // Budget of zero retries: the drop (if any) is final.
        for seed in 0..10 {
            let (_, retrans) = outcome(seed, 0);
            assert_eq!(retrans, 0);
        }
    }

    /// Retransmissions keep the conservation identity: lost copies are
    /// accounted when lost, resends count as fresh sends.
    #[test]
    fn reliability_preserves_conservation() {
        struct Chatty;
        impl Node<u8> for Chatty {
            fn on_round(&mut self, ctx: &mut Context<'_, u8>) -> Activity {
                if ctx.round() < 3 {
                    for peer in 0..ctx.node_count() {
                        if peer != ctx.id().0 {
                            ctx.send_reliable(NodeId(peer), ctx.round() as u8);
                        }
                    }
                    return Activity::Active;
                }
                Activity::Idle
            }
        }
        let cfg = FaultConfig::new(0.4, 0.2, 19).unwrap().with_max_delay(2);
        let nodes: Vec<Chatty> = (0..6).map(|_| Chatty).collect();
        let mut net = Network::new(nodes)
            .with_faults(cfg)
            .with_reliability(ReliableConfig::new(1, 3))
            .with_shards(2);
        for _ in 0..40 {
            net.step();
            assert!(
                net.metrics().conserves(net.in_flight(), net.delayed()),
                "conservation violated: {:?} in_flight={} delayed={} retrans={}",
                net.metrics(),
                net.in_flight(),
                net.delayed(),
                net.pending_retransmissions()
            );
        }
        assert!(net.metrics().messages_retransmitted > 0);
        assert_eq!(net.pending_retransmissions(), 0, "budget must exhaust");
    }
}
