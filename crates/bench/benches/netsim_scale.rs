//! Million-agent round-loop throughput of the sharded network simulator.
//!
//! The paper's protocol is one-shot, but its communication skeleton — every
//! agent pushes its current best (score, id) token to a neighbor each round
//! and folds arrivals by max — is the round loop any large-scale greedy
//! deployment sits in. This bench drives that loop at `n = 2²⁰ > 10⁶`
//! agents on a sparse random-regular overlay and reports the median *round*
//! time (one `b.iter` call executes exactly one synchronous round, so the
//! reported median is the per-round latency; divide by `n` for the
//! per-agent-step throughput).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use npd_core::distributed::{self, ProtocolOptions, SelectionStrategy};
use npd_core::{Instance, NoiseModel};
use npd_netsim::{Activity, Context, Network, Node, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Greedy score-diffusion agent: holds its greedy score, pushes its best
/// known (score, id) token to its neighbors round-robin, folds arrivals by
/// (score, smaller-id) max — the tie rule of the workspace's rank-k
/// decoders.
struct ScoreNode {
    best: (f64, u32),
    cursor: u32,
}

impl Node<(f64, u32)> for ScoreNode {
    fn on_round(&mut self, ctx: &mut Context<'_, (f64, u32)>) -> Activity {
        for env in ctx.inbox() {
            let (s, id) = env.payload;
            if s > self.best.0 || (s == self.best.0 && id < self.best.1) {
                self.best = (s, id);
            }
        }
        let degree = ctx.degree();
        let peer = ctx.neighbor(self.cursor as usize % degree);
        self.cursor = self.cursor.wrapping_add(1);
        ctx.send(peer, self.best);
        Activity::Active
    }
}

/// Deterministic pseudo-score for agent `i` (no RNG state needed).
fn score_of(i: u64) -> f64 {
    let mut x = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as f64 / u64::MAX as f64
}

fn diffusion_net(n: usize, shards: usize) -> Network<(f64, u32), ScoreNode> {
    let topology = Topology::random_regular(n, 4, 7);
    let nodes: Vec<ScoreNode> = (0..n)
        .map(|i| ScoreNode {
            best: (score_of(i as u64), i as u32),
            cursor: (i % 4) as u32,
        })
        .collect();
    Network::new(nodes)
        .with_topology(topology)
        .with_shards(shards)
}

fn bench_round_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_scale");
    group.sample_size(10);
    // 2¹⁶ for the trend line, 2²⁰ (> 10⁶ agents) as the headline, at one
    // shard and at eight (bit-identical outputs; the shard axis shows the
    // parallel speedup on multicore hosts and the sharding overhead here).
    for &(n, shards) in &[(1usize << 16, 1usize), (1 << 20, 1), (1 << 20, 8)] {
        let mut net = diffusion_net(n, shards);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("greedy_round", format!("n={n}/shards={shards}")),
            &n,
            |b, _| {
                // One iteration = one synchronous round: n sends, n
                // deliveries through the CSR arena.
                b.iter(|| black_box(net.step()));
            },
        );
    }
    group.finish();
}

fn bench_selection_at_scale(c: &mut Criterion) {
    // The full decentralized top-k selection at a square-root scale point,
    // as the bridge between the unit-test sizes and the round-loop above.
    // The adaptive termination decides as soon as a probe isolates the
    // k-th score; the pre-adaptive fixed timetable burned 2 379 rounds
    // (189 ms) here regardless of the data.
    let mut group = c.benchmark_group("netsim_scale_topk");
    group.sample_size(10);
    let n = 4_096usize;
    let scores: Vec<f64> = (0..n).map(|i| score_of(i as u64)).collect();
    group.bench_with_input(BenchmarkId::new("select_top_k", n), &scores, |b, scores| {
        b.iter(|| black_box(npd_netsim::gossip::select_top_k(scores, 64)));
    });
    group.finish();
}

/// Samples a pooled-data run sized for the end-to-end protocol bench: the
/// query load is kept modest (the bench measures protocol scaling, not
/// recovery) and the Gaussian query noise makes scores generically
/// distinct, which is the regime the adaptive bisection is built for.
fn e2e_run(n: usize, k: usize, m: usize, gamma: usize) -> npd_core::Run {
    Instance::builder(n)
        .k(k)
        .queries(m)
        .query_size(gamma)
        .noise(NoiseModel::gaussian(1.0))
        .build()
        .expect("bench instance is valid")
        .sample(&mut StdRng::seed_from_u64(11))
}

fn bench_protocol_e2e(c: &mut Criterion) {
    // The headline enabled by the GossipThreshold strategy: the *entire*
    // distributed protocol — measurement broadcast, score accumulation,
    // adaptive top-k selection — at the million-agent scale of the round
    // loop above. The Batcher path cannot run here: its comparator
    // schedule alone is O(n log² n) ≈ 2·10⁸ entries at n = 2²⁰.
    //
    // One iteration = one full protocol execution (hundreds of synchronous
    // rounds), so the n = 2²⁰ row takes minutes per sample; it only runs
    // when NETSIM_SCALE_FULL is set (the recorded median lives in
    // BENCH_baseline.json). The n = 2¹⁶ row always runs and keeps the CI
    // smoke pass fast.
    let mut group = c.benchmark_group("netsim_scale_protocol");
    group.sample_size(2);
    let mut points = vec![(1usize << 16, 256usize, 256usize, 2048usize)];
    if std::env::var("NETSIM_SCALE_FULL").is_ok() {
        points.push((1 << 20, 1024, 256, 4096));
    }
    let gossip = ProtocolOptions {
        strategy: SelectionStrategy::gossip(),
        ..ProtocolOptions::default()
    };
    for (n, k, m, gamma) in points {
        let run = e2e_run(n, k, m, gamma);
        group.bench_with_input(
            BenchmarkId::new("gossip_protocol", format!("n={n}")),
            &run,
            |b, run| {
                b.iter(|| {
                    let outcome =
                        distributed::run_protocol_chaos(run, gossip).expect("protocol quiesces");
                    assert_eq!(outcome.missing_assignments, 0);
                    black_box(outcome.rounds)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round_loop,
    bench_selection_at_scale,
    bench_protocol_e2e
);
criterion_main!(benches);
