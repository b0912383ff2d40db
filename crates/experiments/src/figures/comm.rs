//! Section VI: communication cost of the greedy protocol vs distributed
//! AMP.
//!
//! The paper's conclusion argues that the greedy protocol needs “only one
//! information exchange per network node” while AMP requires an information
//! flow through the whole network over many rounds. This experiment makes
//! that concrete: it runs the real message-passing protocol on the network
//! simulator, counts messages and rounds, then prices a distributed AMP
//! execution of the measured iteration count with the per-iteration edge
//! traffic model of [`npd_amp::cost`].

use super::{FigureReport, RunOptions};
use crate::mix_seed;
use crate::output::table;
use npd_amp::cost::DistributedAmpCost;
use npd_amp::AmpDecoder;
use npd_core::distributed::{self, ProtocolOptions, SelectionStrategy};
use npd_core::{Instance, NoiseModel, Regime};
use npd_netsim::gossip::push_sum_report_on;
use npd_netsim::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs push-sum prevalence estimation (averaging the reconstructed bits)
/// on `topology` and returns `(messages, rounds, max estimation error)`.
/// This is the decentralized answer to "what is k?" when no coordinator
/// exists, priced on a concrete overlay.
fn push_sum_cost(topology: Topology, bits: &[bool], rounds: usize, seed: u64) -> (u64, u64, f64) {
    let n = bits.len();
    let truth = bits.iter().filter(|&&b| b).count() as f64 / n as f64;
    let values: Vec<f64> = bits.iter().map(|&b| f64::from(u8::from(b))).collect();
    let report = push_sum_report_on(topology, &values, rounds, seed);
    let err = report
        .estimates
        .iter()
        .map(|e| (e - truth).abs())
        .fold(0.0f64, f64::max);
    (report.metrics.messages_sent, report.metrics.rounds, err)
}

/// Runs the communication comparison.
pub fn run(opts: &RunOptions) -> FigureReport {
    let n = match opts.mode {
        crate::Mode::Quick => 256,
        crate::Mode::Full => 1024,
    };
    let instance = Instance::builder(n)
        .regime(Regime::sublinear(0.25))
        .queries(3 * n / 2)
        .noise(NoiseModel::z_channel(0.1))
        .build()
        .expect("comm configuration is valid");
    let mut rng = StdRng::seed_from_u64(mix_seed(0xC033, n as u64));
    let run = instance.sample(&mut rng);

    let outcome = distributed::run_protocol_chaos(&run, ProtocolOptions::default())
        .expect("protocol quiesces");
    let (_, amp_trace) = AmpDecoder::default().decode_with_trace(&run);

    let edges: u64 = run
        .graph()
        .queries()
        .iter()
        .map(|q| q.distinct_len() as u64)
        .sum();
    let amp_cost = DistributedAmpCost::new(edges, amp_trace.iterations as u64);

    // The gossip alternative to step II, measured *in the protocol*: the
    // same network runs the adaptive threshold search instead of the
    // sorting network (strategy `GossipThreshold`), and every agent
    // decides its own bit — no assignment traffic, no sorting-network
    // schedule. The estimate is bit-identical to the Batcher path.
    let gossip = ProtocolOptions {
        strategy: SelectionStrategy::gossip(),
        ..ProtocolOptions::default()
    };
    let gossip = distributed::run_protocol_chaos(&run, gossip).expect("gossip protocol quiesces");
    assert_eq!(gossip.estimate, outcome.estimate);
    let gossip_messages = gossip.metrics.messages_sent;
    let gossip_rounds = gossip.rounds;

    // Topology scenario: the same prevalence estimate on a sparse
    // small-world overlay (mean degree 6; rewiring preserves the total,
    // not the per-node degree), at the price of more rounds for the same
    // accuracy. The distributed outcome's estimate is bit-identical to
    // the sequential decoder's (pinned by the equivalence tests), so its
    // bits feed the gossip directly.
    let overlay = Topology::small_world(n, 6, 0.1, mix_seed(0xC034, n as u64));
    let sw_max_degree = (0..n)
        .map(|v| overlay.degree(npd_netsim::NodeId(v)))
        .max()
        .expect("overlay is non-empty");
    let gossip_rounds_budget = 3 * (n.ilog2() as usize + 1);
    let (sw_messages, sw_rounds, sw_err) = push_sum_cost(
        overlay,
        outcome.estimate.bits(),
        gossip_rounds_budget,
        mix_seed(0xC035, n as u64),
    );

    let greedy_messages = outcome.metrics.messages_sent;
    let rows = vec![
        vec![
            "greedy protocol (measured)".into(),
            greedy_messages.to_string(),
            outcome.rounds.to_string(),
            format!("{:.1}", greedy_messages as f64 / edges as f64),
        ],
        vec![
            "greedy + gossip selection (measured)".into(),
            gossip_messages.to_string(),
            gossip_rounds.to_string(),
            format!("{:.1}", gossip_messages as f64 / edges as f64),
        ],
        vec![
            format!("distributed AMP ({} iterations)", amp_trace.iterations),
            amp_cost.messages().to_string(),
            amp_cost.rounds().to_string(),
            format!("{:.1}", amp_cost.overhead_vs_single_pass()),
        ],
        vec![
            "push-sum k-estimate, small-world overlay (measured)".into(),
            sw_messages.to_string(),
            sw_rounds.to_string(),
            format!("{:.1}", sw_messages as f64 / edges as f64),
        ],
    ];

    let ratio = amp_cost.messages() as f64 / greedy_messages as f64;
    let notes = vec![
        format!(
            "n={n}, m={}, {} measurement edges; greedy: {} messages in {} rounds \
             (sort depth {})",
            instance.m(),
            edges,
            greedy_messages,
            outcome.rounds,
            outcome.sort_depth
        ),
        format!(
            "gossip step II replaces the sorting network with the adaptive threshold \
             search: {} messages over {} rounds ({} probes), agents learn only \
             their own bit, and no O(n log² n) comparator schedule is ever built",
            gossip_messages, gossip_rounds, gossip.probes
        ),
        format!(
            "distributed AMP would need {} messages over {} rounds — {ratio:.1}x the \
             greedy protocol's traffic",
            amp_cost.messages(),
            amp_cost.rounds()
        ),
        format!(
            "sparse overlay scenario: push-sum on a small-world graph (mean degree 6, \
             β = 0.1) estimates the prevalence k/n to max error {sw_err:.1e} in \
             {sw_rounds} rounds with every node talking to at most {} peers",
            sw_max_degree + 1
        ),
    ];

    let rendered = format!(
        "Section VI — communication: greedy protocol vs distributed AMP (n = {n})\n{}",
        table(&["protocol", "messages", "rounds", "messages/edge"], &rows)
    );

    let csv_rows = rows
        .into_iter()
        .map(|r| {
            let mut row = vec![n.to_string()];
            row.extend(r);
            row
        })
        .collect();

    FigureReport {
        name: "comm".into(),
        rendered,
        csv_headers: vec![
            "n".into(),
            "protocol".into(),
            "messages".into(),
            "rounds".into(),
            "messages_per_edge".into(),
        ],
        csv_rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amp_costs_more_communication() {
        let opts = RunOptions::quick();
        let report = run(&opts);
        assert_eq!(report.csv_rows.len(), 4);
        let greedy: u64 = report.csv_rows[0][2].parse().unwrap();
        let gossip: u64 = report.csv_rows[1][2].parse().unwrap();
        let amp: u64 = report.csv_rows[2][2].parse().unwrap();
        assert!(amp > greedy, "AMP messages {amp} not above greedy {greedy}");
        // The adaptive gossip selection needs only a handful of probes on
        // this instance, undercutting both the sorting network's token
        // traffic and (by far) the AMP flow.
        assert!(
            gossip < greedy,
            "gossip {gossip} not below batcher {greedy}"
        );
        assert!(gossip < amp);
        let gossip_rounds: u64 = report.csv_rows[1][3].parse().unwrap();
        let greedy_rounds: u64 = report.csv_rows[0][3].parse().unwrap();
        assert!(gossip_rounds > 0 && greedy_rounds > 0);
        // The sparse-overlay scenario sends at most one message per node
        // per round.
        let sw_n: u64 = report.csv_rows[3][0].parse().unwrap();
        let sw_messages: u64 = report.csv_rows[3][2].parse().unwrap();
        let sw_rounds: u64 = report.csv_rows[3][3].parse().unwrap();
        assert!(sw_messages <= sw_rounds * sw_n);
        assert!(sw_messages > 0);
    }
}
