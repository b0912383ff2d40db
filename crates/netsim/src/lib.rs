//! Deterministic, sharded, synchronous message-passing network simulator.
//!
//! The paper's Algorithm 1 is a *distributed* protocol: query nodes send
//! their (noisy) measurements to agents, agents accumulate scores, and the
//! agents then sort themselves through a sorting network. This crate is the
//! substrate that protocol runs on:
//!
//! * [`Node`] — the behaviour of one network participant. Each round a node
//!   sees the messages delivered to it and may send messages through its
//!   [`Context`].
//! * [`Network`] — a collection of nodes plus in-flight mailboxes, advanced
//!   round by round with classic synchronous semantics: everything sent in
//!   round `r` is delivered at the start of round `r + 1`. Nodes are
//!   partitioned into contiguous *shards*; [`Network::step`] steps the
//!   shards on the rayon pool, and deliveries are compacted into a
//!   CSR-style per-shard arena (offset table + envelope slab, buffers
//!   reused across rounds). [`Network::new`] plus the `with_*` builders is
//!   the only way to build one.
//! * [`Topology`] — who may talk to whom: complete (the default),
//!   ring, grid, random `d`-regular, or Watts–Strogatz small world, with
//!   optional per-link [`LinkFaults`] overrides.
//! * [`Metrics`] — message/round accounting, which backs the communication
//!   comparison between the greedy protocol (one exchange per node) and
//!   AMP (one exchange per node *per iteration*) in the paper's conclusion.
//! * [`FaultConfig`] — message dropping/duplication/delay for failure
//!   injection; the uniform default of the general per-link model.
//! * [`NodeFaultPlan`] — agent-level chaos: fail-stop crashes (with
//!   optional restarts), stragglers, and payload corruptors, all decided
//!   by pure per-node hashes.
//! * [`ReliableConfig`] — opt-in at-least-once delivery: messages sent
//!   with [`Context::send_reliable`] are retransmitted on loss with
//!   exponential backoff and a bounded retry budget.
//!
//! # Determinism and delivery-order contract
//!
//! The simulator is fully deterministic, and its results are **independent
//! of the shard count and the thread count**:
//!
//! * Nodes are stepped in id order within each shard, and shards touch
//!   disjoint state, so parallel stepping cannot reorder anything.
//! * Every message carries its identity `(sender, send-seq)` — the
//!   sender's cumulative send counter. A node's inbox is always sorted by
//!   that identity, *regardless of which round each message was sent in*:
//!   delay-faulted messages merge back under the same sort, so a delayed
//!   run replays bit-identically.
//! * Fault decisions (drop, duplicate, delay) are pure functions of the
//!   fault seed and the message identity — there is no shared fault RNG
//!   stream that scheduling could perturb. Duplication-fault copies get
//!   their own identity (ordered right after the original) and pass the
//!   drop/delay gates independently.
//! * Agent-level faults obey the same rule: which nodes crash (and when),
//!   lag, or corrupt payloads are pure per-node hashes of the
//!   [`NodeFaultPlan`] seed, and retransmission copies get fresh
//!   identities, so chaos schedules replay bit-identically too.
//!
//! The workspace-root `tests/determinism.rs` pins bit-identical runs for
//! shard counts {1, 2, 8} and thread counts {1, 4}.
//!
//! # Examples
//!
//! A two-node ping-pong, split into two shards (the run is the same for
//! any shard or thread count):
//!
//! ```
//! use npd_netsim::{Activity, Context, Network, Node, NodeId};
//!
//! struct PingPong { hits: u32 }
//!
//! impl Node<u32> for PingPong {
//!     fn on_round(&mut self, ctx: &mut Context<'_, u32>) -> Activity {
//!         if ctx.round() == 0 && ctx.id() == NodeId(0) {
//!             ctx.send(NodeId(1), 1);
//!         }
//!         let inbox: Vec<u32> = ctx.inbox().iter().map(|e| e.payload).collect();
//!         for v in inbox {
//!             self.hits += 1;
//!             if v < 4 {
//!                 let peer = NodeId(1 - ctx.id().0);
//!                 ctx.send(peer, v + 1);
//!             }
//!         }
//!         Activity::Idle
//!     }
//! }
//!
//! let nodes = vec![PingPong { hits: 0 }, PingPong { hits: 0 }];
//! let mut net = Network::new(nodes).with_shards(2);
//! let report = net.run_until_quiescent(100).unwrap();
//! assert_eq!(report.rounds, 5);
//! assert_eq!(net.metrics().messages_sent, 4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Delivery/fault paths must not hide failure modes behind ad-hoc panics:
// unwraps are either converted to typed errors or annotated with the
// invariant that makes them unreachable (allow + comment). Test code is
// exempt — a panicking unwrap is exactly what a failing test should do.
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod faults;
pub mod gossip;
mod metrics;
mod network;
pub mod schedule;
mod topology;

pub use faults::{FaultConfig, InvalidFaultConfig, NodeFaultPlan, ReliableConfig};
pub use metrics::{Metrics, NodeTraffic};
pub use network::{Context, Network, RunReport, StepReport};
pub use topology::{LinkFaults, Topology};

use std::fmt;

/// Identifier of a node inside one [`Network`]; indexes the node vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A message in flight, tagged with its sender and recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Message payload.
    pub payload: M,
}

/// Whether a node wants to be stepped again even without incoming messages.
///
/// The network is quiescent — and [`Network::run_until_quiescent`] stops —
/// when no messages are in flight *and* every node reported [`Activity::Idle`]
/// in the latest round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Node has nothing more to do unless a message arrives.
    Idle,
    /// Node wants another round regardless of message arrivals.
    Active,
}

/// Behaviour of one network participant.
///
/// Implementations should be deterministic functions of their own state and
/// the context; all randomness in this workspace's protocols is injected via
/// node state constructed from a seeded RNG, keeping whole-network runs
/// reproducible.
pub trait Node<M> {
    /// Called once per round. Messages sent through `ctx` are delivered next
    /// round. Return [`Activity::Active`] to request another round even if no
    /// messages are in flight.
    fn on_round(&mut self, ctx: &mut Context<'_, M>) -> Activity;

    /// Called when a crashed node rejoins under a [`NodeFaultPlan`]
    /// restart schedule, immediately before it is stepped again.
    /// Implementations should wipe volatile protocol state — the fail-stop
    /// model gives a restarted node no memory of the run so far. The
    /// default does nothing (stateless nodes need no wipe).
    fn on_restart(&mut self, round: u64) {
        let _ = round;
    }
}

/// Error returned when a run exceeds its round budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxRoundsExceeded {
    /// The budget that was exhausted.
    pub max_rounds: u64,
    /// Messages still in flight when the run was aborted.
    pub in_flight: usize,
}

impl fmt::Display for MaxRoundsExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network did not quiesce within {} rounds ({} messages in flight)",
            self.max_rounds, self.in_flight
        )
    }
}

impl std::error::Error for MaxRoundsExceeded {}
