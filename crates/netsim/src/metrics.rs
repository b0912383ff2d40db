//! Communication accounting.

use serde::{Deserialize, Serialize};

/// Cumulative communication metrics of a [`crate::Network`] run.
///
/// The paper's conclusion contrasts the greedy protocol (“requires only one
/// information exchange per network node”) with AMP's per-iteration message
/// flow; these counters make that comparison concrete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Rounds executed so far.
    pub rounds: u64,
    /// Messages handed to the network by nodes.
    pub messages_sent: u64,
    /// Messages actually delivered (after faults).
    pub messages_delivered: u64,
    /// Messages dropped by fault injection.
    pub messages_dropped: u64,
    /// Extra copies created by duplication fault injection.
    pub messages_duplicated: u64,
    /// Messages held back by delay fault injection.
    pub messages_delayed: u64,
    /// Estimated payload bytes sent (`messages_sent × size_of::<M>()`).
    ///
    /// This is a stack-size estimate: heap-owning payloads count their
    /// header only. The protocols in this workspace use plain-old-data
    /// messages, for which the estimate is exact.
    pub payload_bytes_sent: u64,
    /// Largest number of messages in flight at any round boundary.
    pub peak_in_flight: u64,
    /// Messages discarded because their destination was crashed at
    /// delivery time (see [`crate::NodeFaultPlan`]).
    #[serde(default)]
    pub messages_lost_to_crash: u64,
    /// Delivered messages whose payload was garbled by a corruptor node
    /// (these still count as delivered; corruption is a payload fault,
    /// not a transport fault).
    #[serde(default)]
    pub messages_corrupted: u64,
    /// Extra send attempts made by the reliable-delivery layer
    /// (see [`crate::ReliableConfig`]). Each retransmission also counts
    /// as a normal send in [`messages_sent`](Self::messages_sent).
    #[serde(default)]
    pub messages_retransmitted: u64,
    /// Fail-stop crash events executed so far.
    #[serde(default)]
    pub node_crashes: u64,
    /// Restart events (crashed node rejoining with wiped state).
    #[serde(default)]
    pub node_restarts: u64,
}

impl Metrics {
    /// Mean messages sent per executed round (`0.0` before the first round).
    pub fn messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.rounds as f64
        }
    }

    /// Every counter as a `(name, value)` row, in declaration order.
    ///
    /// This is the single enumeration of the struct's fields: each
    /// traced round event carries the rows that changed, the experiments
    /// harness renders them as the traced protocol run's outcome table,
    /// and [`conserves`](Self::conserves) evaluates its identity over
    /// them — instead of each site plumbing fields by hand (and silently
    /// going stale when a counter is added).
    pub fn as_rows(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("rounds", self.rounds),
            ("messages_sent", self.messages_sent),
            ("messages_delivered", self.messages_delivered),
            ("messages_dropped", self.messages_dropped),
            ("messages_duplicated", self.messages_duplicated),
            ("messages_delayed", self.messages_delayed),
            ("payload_bytes_sent", self.payload_bytes_sent),
            ("peak_in_flight", self.peak_in_flight),
            ("messages_lost_to_crash", self.messages_lost_to_crash),
            ("messages_corrupted", self.messages_corrupted),
            ("messages_retransmitted", self.messages_retransmitted),
            ("node_crashes", self.node_crashes),
            ("node_restarts", self.node_restarts),
        ]
        .into_iter()
    }

    /// Sum of the named rows from [`as_rows`](Self::as_rows).
    fn row_total(&self, names: &[&str]) -> u64 {
        let mut total = 0u64;
        for (name, value) in self.as_rows() {
            if names.contains(&name) {
                total += value;
            }
        }
        total
    }

    /// The fault pipeline's conservation identity: every copy the network
    /// ever accepted (sends plus duplication copies) is accounted for
    /// exactly once —
    /// `sent + duplicated ==
    ///  delivered + dropped + in_flight + delayed + lost_to_crash`,
    /// where `in_flight`/`delayed` are the *currently pending* counts from
    /// [`crate::Network::in_flight`] and [`crate::Network::delayed`]. This
    /// holds at every round boundary, fault-injected or not; the
    /// workspace-root failure-injection proptests assert it. Corrupted
    /// messages are delivered (garbled), so they need no extra term;
    /// retransmissions enter through `messages_sent` like any other send.
    pub fn conserves(&self, in_flight: usize, delayed: usize) -> bool {
        let accepted = self.row_total(&["messages_sent", "messages_duplicated"]);
        let accounted = self.row_total(&[
            "messages_delivered",
            "messages_dropped",
            "messages_lost_to_crash",
        ]);
        accepted == accounted + in_flight as u64 + delayed as u64
    }
}

/// Per-node cumulative traffic counters.
///
/// The paper's headline comparison (“our greedy approach … requires only
/// one information exchange per network node”) is a *per-node* statement;
/// these counters let tests and experiments verify it node by node rather
/// than only in aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeTraffic {
    /// Messages this node handed to the network.
    pub sent: u64,
    /// Messages delivered to this node.
    pub received: u64,
    /// Rounds in which this node sent at least one message.
    pub active_send_rounds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let m = Metrics::default();
        assert_eq!(m.rounds, 0);
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.messages_per_round(), 0.0);
    }

    #[test]
    fn messages_per_round_divides() {
        let m = Metrics {
            rounds: 4,
            messages_sent: 10,
            ..Metrics::default()
        };
        assert_eq!(m.messages_per_round(), 2.5);
    }

    #[test]
    fn rows_cover_every_counter_in_declaration_order() {
        let mut m = Metrics::default();
        // Give every field a distinct value so a swapped or missing row
        // cannot cancel out.
        for (i, slot) in [
            &mut m.rounds,
            &mut m.messages_sent,
            &mut m.messages_delivered,
            &mut m.messages_dropped,
            &mut m.messages_duplicated,
            &mut m.messages_delayed,
            &mut m.payload_bytes_sent,
            &mut m.peak_in_flight,
            &mut m.messages_lost_to_crash,
            &mut m.messages_corrupted,
            &mut m.messages_retransmitted,
            &mut m.node_crashes,
            &mut m.node_restarts,
        ]
        .into_iter()
        .enumerate()
        {
            *slot = i as u64 + 1;
        }
        let rows: Vec<(&str, u64)> = m.as_rows().collect();
        assert_eq!(rows.len(), 13, "as_rows must enumerate every field");
        assert_eq!(rows[0], ("rounds", 1));
        assert_eq!(rows[1], ("messages_sent", 2));
        assert_eq!(rows[12], ("node_restarts", 13));
        let values: Vec<u64> = rows.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=13).collect::<Vec<u64>>());
    }

    #[test]
    fn conservation_accounts_for_crash_losses() {
        let m = Metrics {
            messages_sent: 10,
            messages_duplicated: 2,
            messages_delivered: 6,
            messages_dropped: 1,
            messages_lost_to_crash: 3,
            ..Metrics::default()
        };
        assert!(m.conserves(1, 1));
        assert!(!m.conserves(2, 1));
    }
}
