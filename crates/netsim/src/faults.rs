//! Fault injection: message-level faults, agent-level (node) faults, and
//! the reliable-delivery layer that pushes back against both.
//!
//! Three orthogonal fault surfaces compose freely:
//!
//! 1. **Message faults** ([`FaultConfig`], [`crate::LinkFaults`]): each
//!    message copy is independently dropped, duplicated, or delayed.
//! 2. **Node faults** ([`NodeFaultPlan`]): whole agents fail-stop crash
//!    (optionally restarting later with wiped state), persistently lag
//!    (*stragglers*), or garble a fraction of their outgoing payloads
//!    (*corruptors*).
//! 3. **Reliable delivery** ([`crate::ReliableConfig`]): opt-in
//!    per-message ack/timeout/retry that turns one-shot sends into
//!    at-least-once delivery with a bounded retransmission budget and
//!    exponential backoff in rounds.
//!
//! Every fault decision — message-level and node-level alike — is a pure
//! hash of the plan's seed and the *identity* of the thing being decided
//! (a node id, or a message's `(sender, send-seq, copy)` triple), never a
//! draw from a shared RNG stream. That is the crate's determinism
//! contract: fault schedules replay bit-identically at any shard or
//! thread count, so chaos experiments are exactly reproducible.
//!
//! Crash semantics are fail-stop: a crashed node is not stepped, sends
//! nothing, and every message that would be delivered to it while down is
//! discarded and counted in
//! [`Metrics::messages_lost_to_crash`](crate::Metrics::messages_lost_to_crash)
//! (the conservation identity gains that term). A restarting node rejoins
//! with its protocol state wiped ([`crate::Node::on_restart`]) but keeps
//! its send-sequence counter, so message identities stay unique across
//! incarnations.

use crate::topology::LinkFaults;
use serde::{Deserialize, Serialize};

/// Splitmix64 finalizer: the mixing primitive behind every per-identity
/// fault decision in this crate.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A hash in `[0, 1)` derived from the top 53 bits of `h`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Pure per-node draw: mixes the plan seed, a salt for the decision kind,
/// and the node id.
fn node_hash(seed: u64, salt: u64, node: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt) ^ splitmix64(node ^ (salt << 1)))
}

/// Whether a node with crash schedule `span` (see
/// [`NodeFaultPlan::crash_span`]) is down — crashed and not yet
/// restarted — at `round`.
pub(crate) fn down_in(span: Option<(u64, Option<u64>)>, round: u64) -> bool {
    span.is_some_and(|(crash, restart)| round >= crash && restart.is_none_or(|r| round < r))
}

/// Configuration for randomized message faults: the *uniform* instance of
/// the general per-link fault model (see [`crate::LinkFaults`] and
/// [`crate::Topology::with_link_faults`] for per-link overrides).
///
/// Each message sent through the network is independently duplicated (one
/// extra copy) with probability [`dup_prob`](Self::dup_prob); every copy —
/// original or duplicate — then independently passes the drop gate
/// (probability [`drop_prob`](Self::drop_prob)) and the delay draw.
/// Decisions are pure functions of [`seed`](Self::seed) and the message
/// identity `(sender, send-seq, copy)`, so runs replay bit-identically at
/// any shard or thread count.
///
/// The pooled-data protocol is *one-shot* (a query's measurement is sent
/// exactly once), so dropped messages model sensor/readout loss and
/// duplicates model at-least-once delivery; the failure-injection tests in
/// `npd-core` quantify how the decoder degrades under both.
///
/// # Examples
///
/// ```
/// let faults = npd_netsim::FaultConfig::new(0.05, 0.0, 99).unwrap();
/// assert_eq!(faults.drop_prob(), 0.05);
/// ```
/// In addition to loss and duplication, messages can be *delayed*: with
/// [`with_max_delay`](Self::with_max_delay) each surviving message is held
/// back a uniform number of extra rounds in `0..=max_delay`. Delay models
/// the bounded-asynchrony middle ground between the synchronous model the
/// protocols are written for and a fully asynchronous network. Protocols
/// that react to *arrivals* (measurement accumulation, push-sum) tolerate
/// it outright. Schedule-driven phases (the sorting network, the gossip
/// selection) require the synchronous model, and an out-of-schedule
/// arrival is *not* harmless to them: a delayed sort token consumed as the
/// current layer's partner silently corrupts the compare-exchange, and an
/// out-of-phase aggregation message used to crash the selection outright.
/// Both protocols therefore tag their messages (comparator layer, phase
/// index) and count-and-ignore stale arrivals — that is what turns bounded
/// asynchrony into *graceful degradation* (missing partners, partial
/// aggregates) instead of corruption or panics; see
/// `ProtocolOutcome::stale_messages` and `TopKReport::stale_messages`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    drop_prob: f64,
    dup_prob: f64,
    seed: u64,
    #[serde(default)]
    max_delay: u64,
}

impl FaultConfig {
    /// Creates a fault configuration.
    ///
    /// # Errors
    ///
    /// Returns an error message if either probability lies outside `[0, 1]`.
    pub fn new(drop_prob: f64, dup_prob: f64, seed: u64) -> Result<Self, InvalidFaultConfig> {
        if !(0.0..=1.0).contains(&drop_prob) {
            return Err(InvalidFaultConfig {
                field: "drop_prob",
                value: drop_prob,
            });
        }
        if !(0.0..=1.0).contains(&dup_prob) {
            return Err(InvalidFaultConfig {
                field: "dup_prob",
                value: dup_prob,
            });
        }
        Ok(Self {
            drop_prob,
            dup_prob,
            seed,
            max_delay: 0,
        })
    }

    /// A configuration that never alters messages: useful as the default
    /// profile when only per-link overrides should inject faults (the
    /// `seed` still drives those overrides' decisions).
    pub fn reliable(seed: u64) -> Self {
        Self {
            drop_prob: 0.0,
            dup_prob: 0.0,
            seed,
            max_delay: 0,
        }
    }

    /// Adds random message delay: each surviving message is held back an
    /// extra `0..=rounds` rounds (uniform, independent per message).
    #[must_use]
    pub fn with_max_delay(mut self, rounds: u64) -> Self {
        self.max_delay = rounds;
        self
    }

    /// This configuration viewed as the default per-link fault profile.
    pub fn link_faults(&self) -> LinkFaults {
        LinkFaults {
            drop_prob: self.drop_prob,
            dup_prob: self.dup_prob,
            max_delay: self.max_delay,
        }
    }

    /// Probability that a sent message is silently dropped.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Probability that a delivered message arrives twice.
    pub fn dup_prob(&self) -> f64 {
        self.dup_prob
    }

    /// Seed of the fault RNG.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maximum extra delivery delay in rounds (`0` disables delays).
    pub fn max_delay(&self) -> u64 {
        self.max_delay
    }
}

/// Salt for the "is this node a crasher" draw.
const SALT_CRASH_SELECT: u64 = 0x5EED_C0DE_0000_0001;
/// Salt for a crasher's crash-round draw inside the window.
const SALT_CRASH_ROUND: u64 = 0x5EED_C0DE_0000_0002;
/// Salt for the "is this node a straggler" draw.
const SALT_STRAGGLER: u64 = 0x5EED_C0DE_0000_0003;
/// Salt for the "is this node a corruptor" draw.
const SALT_CORRUPTOR: u64 = 0x5EED_C0DE_0000_0004;
/// Salt for a corruptor's per-message garble draw.
const SALT_CORRUPT_MSG: u64 = 0x5EED_C0DE_0000_0005;
/// Salt for the garble entropy handed to the payload corruptor.
const SALT_CORRUPT_BITS: u64 = 0x5EED_C0DE_0000_0006;

/// Agent-level fault schedule: fail-stop crashes (with optional restart),
/// stragglers, and payload corruptors.
///
/// Like [`FaultConfig`], the plan is *declarative*: which nodes crash (and
/// when), which lag, and which garble their payloads are pure functions of
/// [`seed`](Self::seed) and the node id — there is no RNG stream to
/// advance, so the same plan replays bit-identically at any shard or
/// thread count. Attach a plan to a network with
/// [`crate::Network::with_node_faults`].
///
/// # Fault kinds
///
/// - **Crashes** ([`with_crashes`](Self::with_crashes)): a `frac` fraction
///   of nodes fail-stop at a round drawn uniformly from the crash window.
///   With [`with_restarts`](Self::with_restarts) each crashed node rejoins
///   `after` rounds later with wiped protocol state
///   ([`crate::Node::on_restart`]); without it the crash is permanent.
/// - **Stragglers** ([`with_stragglers`](Self::with_stragglers)): a
///   fraction of nodes whose every outgoing message takes `extra_delay`
///   additional rounds — persistent slowness, unlike the per-message delay
///   jitter of [`FaultConfig::with_max_delay`].
/// - **Corruptors** ([`with_corruption`](Self::with_corruption)): a
///   fraction of nodes that garble each outgoing payload independently
///   with probability `per_message`. Corrupted messages are *delivered*
///   (garbled), so robustness must come from the receiver — see the
///   trimmed accumulation path in `npd-core`.
///
/// # Examples
///
/// ```
/// let plan = npd_netsim::NodeFaultPlan::new(7)
///     .with_crashes(0.1, (2, 6)).unwrap()
///     .with_restarts(4)
///     .with_corruption(0.05, 1.0).unwrap();
/// // Decisions are pure: asking twice gives the same answer.
/// assert_eq!(plan.crash_span(3), plan.crash_span(3));
/// assert_eq!(plan.is_corruptor(9), plan.is_corruptor(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeFaultPlan {
    seed: u64,
    crash_frac: f64,
    crash_from: u64,
    crash_until: u64,
    restart_after: Option<u64>,
    straggler_frac: f64,
    straggler_delay: u64,
    corruptor_frac: f64,
    corrupt_prob: f64,
}

impl NodeFaultPlan {
    /// A plan with no faults; add fault kinds with the builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            crash_frac: 0.0,
            crash_from: 0,
            crash_until: 0,
            restart_after: None,
            straggler_frac: 0.0,
            straggler_delay: 0,
            corruptor_frac: 0.0,
            corrupt_prob: 0.0,
        }
    }

    /// Makes a `frac` fraction of nodes fail-stop crash at a round drawn
    /// uniformly from the inclusive `window`.
    ///
    /// # Errors
    ///
    /// Returns an error if `frac` is not a probability or the window is
    /// inverted.
    pub fn with_crashes(
        mut self,
        frac: f64,
        window: (u64, u64),
    ) -> Result<Self, InvalidFaultConfig> {
        if !(0.0..=1.0).contains(&frac) {
            return Err(InvalidFaultConfig {
                field: "crash_frac",
                value: frac,
            });
        }
        if window.0 > window.1 {
            return Err(InvalidFaultConfig {
                field: "crash_window",
                value: window.0 as f64 - window.1 as f64,
            });
        }
        self.crash_frac = frac;
        self.crash_from = window.0;
        self.crash_until = window.1;
        Ok(self)
    }

    /// Crashed nodes restart `after` rounds later (minimum 1) with wiped
    /// state; without this call crashes are permanent.
    #[must_use]
    pub fn with_restarts(mut self, after: u64) -> Self {
        self.restart_after = Some(after.max(1));
        self
    }

    /// Makes a `frac` fraction of nodes stragglers: every message they
    /// send takes `extra_delay` additional rounds to arrive.
    ///
    /// # Errors
    ///
    /// Returns an error if `frac` is not a probability.
    pub fn with_stragglers(
        mut self,
        frac: f64,
        extra_delay: u64,
    ) -> Result<Self, InvalidFaultConfig> {
        if !(0.0..=1.0).contains(&frac) {
            return Err(InvalidFaultConfig {
                field: "straggler_frac",
                value: frac,
            });
        }
        self.straggler_frac = frac;
        self.straggler_delay = extra_delay;
        Ok(self)
    }

    /// Makes a `frac` fraction of nodes corruptors, each garbling an
    /// outgoing payload independently with probability `per_message`.
    ///
    /// # Errors
    ///
    /// Returns an error if either argument is not a probability.
    pub fn with_corruption(
        mut self,
        frac: f64,
        per_message: f64,
    ) -> Result<Self, InvalidFaultConfig> {
        if !(0.0..=1.0).contains(&frac) {
            return Err(InvalidFaultConfig {
                field: "corruptor_frac",
                value: frac,
            });
        }
        if !(0.0..=1.0).contains(&per_message) {
            return Err(InvalidFaultConfig {
                field: "corrupt_prob",
                value: per_message,
            });
        }
        self.corruptor_frac = frac;
        self.corrupt_prob = per_message;
        Ok(self)
    }

    /// Seed of the per-identity fault hashes.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fraction of nodes that crash.
    pub fn crash_frac(&self) -> f64 {
        self.crash_frac
    }

    /// Fraction of nodes that corrupt payloads.
    pub fn corruptor_frac(&self) -> f64 {
        self.corruptor_frac
    }

    /// Per-message garble probability of a corruptor node.
    pub fn corrupt_prob(&self) -> f64 {
        self.corrupt_prob
    }

    /// Whether the plan schedules any corruption at all.
    pub fn has_corruption(&self) -> bool {
        self.corruptor_frac > 0.0 && self.corrupt_prob > 0.0
    }

    /// This node's crash schedule: `Some((crash_round, restart_round))`
    /// if it crashes, where `restart_round` is `None` for a permanent
    /// crash. Pure in `(seed, node)`.
    pub fn crash_span(&self, node: usize) -> Option<(u64, Option<u64>)> {
        if self.crash_frac <= 0.0 {
            return None;
        }
        let select = node_hash(self.seed, SALT_CRASH_SELECT, node as u64);
        if unit_f64(select) >= self.crash_frac {
            return None;
        }
        let width = self.crash_until - self.crash_from + 1;
        let round = self.crash_from + node_hash(self.seed, SALT_CRASH_ROUND, node as u64) % width;
        let restart = self.restart_after.map(|d| round + d);
        Some((round, restart))
    }

    /// Whether `node` is down (crashed and not yet restarted) at `round`.
    pub fn is_down(&self, node: usize, round: u64) -> bool {
        down_in(self.crash_span(node), round)
    }

    /// Extra delivery delay of every message `node` sends (0 for
    /// non-stragglers).
    pub fn straggler_delay(&self, node: usize) -> u64 {
        if self.straggler_frac <= 0.0 || self.straggler_delay == 0 {
            return 0;
        }
        let select = node_hash(self.seed, SALT_STRAGGLER, node as u64);
        if unit_f64(select) < self.straggler_frac {
            self.straggler_delay
        } else {
            0
        }
    }

    /// Whether `node` garbles (some of) its outgoing payloads.
    pub fn is_corruptor(&self, node: usize) -> bool {
        if self.corruptor_frac <= 0.0 || self.corrupt_prob <= 0.0 {
            return false;
        }
        unit_f64(node_hash(self.seed, SALT_CORRUPTOR, node as u64)) < self.corruptor_frac
    }

    /// Whether the message `(from, seq)` is garbled: true only for
    /// corruptor senders, independently per message.
    pub fn corrupts_message(&self, from: u32, seq: u64) -> bool {
        if !self.is_corruptor(from as usize) {
            return false;
        }
        let h = node_hash(self.seed, SALT_CORRUPT_MSG, (from as u64) ^ splitmix64(seq));
        unit_f64(h) < self.corrupt_prob
    }

    /// Deterministic garble entropy for the message `(from, seq)`, handed
    /// to the payload corruptor so garbling itself replays exactly.
    pub fn corruption_entropy(&self, from: u32, seq: u64) -> u64 {
        node_hash(
            self.seed,
            SALT_CORRUPT_BITS,
            (from as u64) ^ splitmix64(seq),
        )
    }
}

/// Configuration of the opt-in reliable-delivery (at-least-once) layer;
/// attach with [`crate::Network::with_reliability`].
///
/// Messages sent through [`crate::Context::send_reliable`] are tracked by
/// the engine: if such a message is lost — dropped by a link fault, or
/// discarded because its destination was crashed at delivery time — it is
/// retransmitted after a backoff of `timeout × 2^attempt` rounds, up to
/// `max_retries` retransmissions. The engine stands in for the receiver's
/// acknowledgement (it knows delivery outcomes), so `timeout` models the
/// sender's loss-detection latency rather than putting ack messages on
/// the wire. Duplicate-fault copies are bonus traffic and never
/// retransmitted; the existing duplication tolerance of the protocols is
/// exactly what makes at-least-once delivery safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReliableConfig {
    timeout: u64,
    max_retries: u16,
}

impl Default for ReliableConfig {
    /// Two-round detection timeout, three retransmissions.
    fn default() -> Self {
        Self {
            timeout: 2,
            max_retries: 3,
        }
    }
}

impl ReliableConfig {
    /// Creates a reliability configuration; `timeout` is clamped to at
    /// least 1 round.
    pub fn new(timeout: u64, max_retries: u16) -> Self {
        Self {
            timeout: timeout.max(1),
            max_retries,
        }
    }

    /// Base loss-detection timeout in rounds.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Maximum number of retransmissions per reliable message.
    pub fn max_retries(&self) -> u16 {
        self.max_retries
    }

    /// Backoff before retransmission number `attempt + 1`:
    /// `timeout × 2^attempt`, saturating.
    pub(crate) fn backoff(&self, attempt: u16) -> u64 {
        self.timeout.saturating_mul(1u64 << attempt.min(16))
    }

    /// Worst-case extra rounds the retry chain can stretch a delivery:
    /// the sum of every backoff wait plus one delivery round per attempt.
    /// Round budgets of protocols running over the reliable layer must
    /// include this slack, or a fully exercised retry chain turns into a
    /// spurious `MaxRoundsExceeded`.
    pub fn worst_case_rounds(&self) -> u64 {
        (0..self.max_retries)
            .map(|a| self.backoff(a).saturating_add(1))
            .fold(0u64, u64::saturating_add)
    }
}

/// Error for out-of-range fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidFaultConfig {
    /// Which field was invalid.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for InvalidFaultConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid fault configuration: {}={} is not a probability",
            self.field, self.value
        )
    }
}

impl std::error::Error for InvalidFaultConfig {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_probabilities() {
        assert!(FaultConfig::new(0.0, 1.0, 0).is_ok());
        assert!(FaultConfig::new(0.5, 0.5, 1).is_ok());
    }

    #[test]
    fn delay_builder_sets_bound() {
        let f = FaultConfig::new(0.0, 0.0, 7).unwrap().with_max_delay(3);
        assert_eq!(f.max_delay(), 3);
        assert_eq!(FaultConfig::new(0.0, 0.0, 7).unwrap().max_delay(), 0);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = FaultConfig::new(1.5, 0.0, 0).unwrap_err();
        assert_eq!(err.field, "drop_prob");
        assert!(err.to_string().contains("drop_prob"));
        assert!(FaultConfig::new(0.0, -0.1, 0).is_err());
    }

    #[test]
    fn node_plan_validates_inputs() {
        assert!(NodeFaultPlan::new(1).with_crashes(1.5, (0, 4)).is_err());
        assert!(NodeFaultPlan::new(1).with_crashes(0.5, (4, 2)).is_err());
        assert!(NodeFaultPlan::new(1).with_stragglers(-0.1, 2).is_err());
        assert!(NodeFaultPlan::new(1).with_corruption(0.5, 2.0).is_err());
        assert!(NodeFaultPlan::new(1).with_corruption(0.5, 0.5).is_ok());
    }

    #[test]
    fn crash_spans_are_pure_and_in_window() {
        let plan = NodeFaultPlan::new(9)
            .with_crashes(0.5, (3, 7))
            .unwrap()
            .with_restarts(2);
        let mut crashed = 0usize;
        for node in 0..200 {
            let span = plan.crash_span(node);
            assert_eq!(span, plan.crash_span(node), "node {node} not pure");
            if let Some((crash, restart)) = span {
                crashed += 1;
                assert!((3..=7).contains(&crash), "crash round {crash}");
                assert_eq!(restart, Some(crash + 2));
                assert!(plan.is_down(node, crash));
                assert!(plan.is_down(node, crash + 1));
                assert!(!plan.is_down(node, crash + 2), "restarted");
                assert!(!plan.is_down(node, crash.saturating_sub(1)));
            }
        }
        assert!(
            (60..=140).contains(&crashed),
            "≈50% of 200 nodes should crash, got {crashed}"
        );
    }

    #[test]
    fn permanent_crash_without_restart() {
        let plan = NodeFaultPlan::new(4).with_crashes(1.0, (2, 2)).unwrap();
        for node in 0..20 {
            assert_eq!(plan.crash_span(node), Some((2, None)));
            assert!(plan.is_down(node, 1_000_000));
        }
    }

    #[test]
    fn stragglers_and_corruptors_select_fractions() {
        let plan = NodeFaultPlan::new(11)
            .with_stragglers(0.25, 3)
            .unwrap()
            .with_corruption(0.25, 0.5)
            .unwrap();
        let stragglers = (0..400).filter(|&v| plan.straggler_delay(v) == 3).count();
        let corruptors = (0..400).filter(|&v| plan.is_corruptor(v)).count();
        assert!((60..=140).contains(&stragglers), "{stragglers}");
        assert!((60..=140).contains(&corruptors), "{corruptors}");
        // Straggler and corruptor draws are independent salts: the two
        // sets must not coincide.
        let both = (0..400)
            .filter(|&v| plan.straggler_delay(v) == 3 && plan.is_corruptor(v))
            .count();
        assert!(both < stragglers.min(corruptors), "sets coincide");
    }

    #[test]
    fn corruption_is_per_message_and_only_for_corruptors() {
        let plan = NodeFaultPlan::new(21).with_corruption(0.5, 0.5).unwrap();
        let corruptor = (0..100)
            .find(|&v| plan.is_corruptor(v))
            .expect("some corruptor");
        let clean = (0..100)
            .find(|&v| !plan.is_corruptor(v))
            .expect("some clean node");
        assert!((0..200).all(|s| !plan.corrupts_message(clean as u32, s)));
        let garbled = (0..200)
            .filter(|&s| plan.corrupts_message(corruptor as u32, s))
            .count();
        assert!((50..=150).contains(&garbled), "{garbled}");
        assert_ne!(
            plan.corruption_entropy(corruptor as u32, 0),
            plan.corruption_entropy(corruptor as u32, 1)
        );
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = NodeFaultPlan::new(77);
        assert!(!plan.has_corruption());
        for node in 0..50 {
            assert_eq!(plan.crash_span(node), None);
            assert_eq!(plan.straggler_delay(node), 0);
            assert!(!plan.is_corruptor(node));
            assert!(!plan.corrupts_message(node as u32, 0));
        }
    }
}
