//! Decoder throughput: greedy / BP / AMP at `n ∈ {1k, 16k}`.
//!
//! Three variants per decoder where they differ:
//!
//! * `naive` — the pre-optimization implementation (fresh allocations per
//!   call/iteration, scatter-based transposed product, no cached
//!   transpose), reproduced here verbatim as the baseline the
//!   `BENCH_baseline.json` snapshot tracks;
//! * `oneshot` — the current public one-shot entry points (cached
//!   transpose for AMP, but fresh workspace buffers per call);
//! * `reuse` — the workspace-reuse paths (`scores_with`, `solve_with`,
//!   `decode_with_trace_using`).
//!
//! Every variant is pinned to a single-threaded rayon pool so the numbers
//! isolate the allocation/layout work from parallel speedup (which
//! `mc_sweep` measures separately).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use npd_amp::{AmpConfig, AmpDecoder, AmpWorkspace, BayesBernoulli, Denoiser};
use npd_bench::sample_run;
use npd_core::{Estimate, GreedyDecoder, GreedyWorkspace, NoiseModel, Run, ScoreOptions};
use npd_decoders::{BpDecoder, BpWorkspace};
use npd_numerics::vector;
use std::hint::black_box;

/// The seed's AMP implementation: per-iteration allocations and the
/// sequential scatter `Aᵀz`, with the centering applied around a raw CSR
/// (no cached transpose). Kept as the pre-optimization baseline.
fn naive_amp_decode(run: &Run, config: &AmpConfig) -> Estimate {
    let instance = run.instance();
    // The seed built its CSR through the generic triplet path; keep that
    // here so the baseline stays frozen as the repo's hot paths improve.
    let a = {
        let graph = run.graph();
        let mut triplets = Vec::new();
        for (j, q) in graph.queries().iter().enumerate() {
            for (agent, count) in q.iter() {
                triplets.push((j, agent as usize, count as f64));
            }
        }
        npd_numerics::CsrMatrix::from_triplets(graph.queries().len(), instance.n(), &triplets)
    };
    let (m, n) = (a.rows(), a.cols());
    let gamma = instance.gamma();
    let c = gamma as f64 / n as f64;
    let var = gamma as f64 * (1.0 / n as f64) * (1.0 - 1.0 / n as f64);
    let s = (m as f64 * var).sqrt();
    let k = instance.k() as f64;
    let (scale, shift) = match *instance.noise() {
        NoiseModel::Channel { p, q } => {
            let denom = 1.0 - p - q;
            (1.0 / denom, q * gamma as f64 / denom)
        }
        NoiseModel::Noiseless | NoiseModel::Query { .. } => (1.0, 0.0),
    };
    let y: Vec<f64> = run
        .results()
        .iter()
        .map(|&yv| ((yv * scale - shift) - c * k) / s)
        .collect();
    let prior = (k / n as f64).clamp(1e-9, 1.0 - 1e-9);
    let denoiser = BayesBernoulli::new(prior);

    let centered_matvec = |x: &[f64]| -> Vec<f64> {
        let sum_x: f64 = x.iter().sum();
        let mut out = a.matvec(x);
        for o in &mut out {
            *o = (*o - c * sum_x) / s;
        }
        out
    };
    let centered_matvec_t = |z: &[f64]| -> Vec<f64> {
        let sum_z: f64 = z.iter().sum();
        let mut out = a.matvec_t(z);
        for o in &mut out {
            *o = (*o - c * sum_z) / s;
        }
        out
    };

    let mut x = vec![0.0f64; n];
    let mut z = y.clone();
    for _ in 0..config.max_iterations {
        let mut v = centered_matvec_t(&z);
        vector::axpy(1.0, &x, &mut v);
        let tau2 = vector::norm2_sq(&z) / m as f64;

        let mut x_new = vec![0.0f64; n];
        let mut deriv_sum = 0.0;
        for (xn, &vi) in x_new.iter_mut().zip(&v) {
            *xn = denoiser.eta(vi, tau2);
            deriv_sum += denoiser.eta_prime(vi, tau2);
        }
        let onsager = if config.onsager {
            deriv_sum / m as f64
        } else {
            0.0
        };

        let bx = centered_matvec(&x_new);
        let mut z_new = y.clone();
        vector::axpy(-1.0, &bx, &mut z_new);
        vector::axpy(onsager, &z, &mut z_new);

        let delta = vector::max_abs_diff(&x_new, &x);
        x = x_new;
        z = z_new;
        if delta < config.tolerance {
            break;
        }
    }
    Estimate::from_scores(x, instance.k())
}

fn configs() -> Vec<(usize, usize, usize, u64)> {
    // (n, k ≈ n^0.25, m, seed)
    vec![(1_000, 6, 300, 11), (16_384, 11, 600, 12)]
}

fn single_thread_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool construction cannot fail")
}

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder_throughput/greedy");
    group.sample_size(10);
    let pool = single_thread_pool();
    for (n, k, m, seed) in configs() {
        let run = sample_run(n, k, m, NoiseModel::z_channel(0.1), seed);
        let decoder = GreedyDecoder::new();
        group.bench_function(BenchmarkId::new("oneshot", format!("n={n}")), |b| {
            b.iter(|| pool.install(|| black_box(decoder.scores(&run))))
        });
        let mut ws = GreedyWorkspace::new();
        group.bench_function(BenchmarkId::new("reuse", format!("n={n}")), |b| {
            b.iter(|| {
                pool.install(|| {
                    black_box(decoder.scores_with(&run, ScoreOptions::default(), &mut ws))
                })
            })
        });
    }
    group.finish();
}

fn bench_bp(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder_throughput/bp");
    group.sample_size(10);
    let pool = single_thread_pool();
    for (n, k, m, seed) in configs() {
        let run = sample_run(n, k, m, NoiseModel::z_channel(0.1), seed);
        let decoder = BpDecoder::new();
        group.bench_function(BenchmarkId::new("oneshot", format!("n={n}")), |b| {
            b.iter(|| pool.install(|| black_box(decoder.solve(&run))))
        });
        let mut ws = BpWorkspace::new();
        group.bench_function(BenchmarkId::new("reuse", format!("n={n}")), |b| {
            b.iter(|| pool.install(|| black_box(decoder.solve_with(&run, &mut ws))))
        });
    }
    group.finish();
}

fn bench_amp(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder_throughput/amp");
    group.sample_size(10);
    let pool = single_thread_pool();
    for (n, k, m, seed) in configs() {
        let run = sample_run(n, k, m, NoiseModel::z_channel(0.1), seed);
        let config = AmpConfig::default();
        let decoder = AmpDecoder::new(config);
        group.bench_function(BenchmarkId::new("naive", format!("n={n}")), |b| {
            b.iter(|| pool.install(|| black_box(naive_amp_decode(&run, &config))))
        });
        group.bench_function(BenchmarkId::new("oneshot", format!("n={n}")), |b| {
            b.iter(|| pool.install(|| black_box(decoder.decode_with_trace(&run))))
        });
        let mut ws = AmpWorkspace::new();
        group.bench_function(BenchmarkId::new("reuse", format!("n={n}")), |b| {
            b.iter(|| pool.install(|| black_box(decoder.decode_with_trace_using(&run, &mut ws))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_greedy, bench_bp, bench_amp);
criterion_main!(benches);
