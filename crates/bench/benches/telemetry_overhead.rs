//! Telemetry overhead on the hottest instrumented path: AMP decoding at
//! `n = 16384`.
//!
//! Three variants of the identical workload:
//!
//! * `off` — workspace as constructed, sink disabled (the default every
//!   library call site gets). This is the cost the contract's "<5%
//!   disabled-path overhead" pin in `BENCH_baseline.json` compares
//!   against `baseline`;
//! * `baseline` — a workspace that has never seen a sink, i.e. the
//!   pre-telemetry code path (the `Option<Arc<Recorder>>` is `None`
//!   either way, so any gap between `baseline` and `off` is pure noise —
//!   which is exactly the claim);
//! * `recording` — deterministic event plane enabled: one `amp.iter`
//!   event per iteration, quantifying what
//!   `repro scenarios run <name> --trace` actually pays.
//!
//! Single-threaded pool, like `decoder_throughput`, so the numbers
//! isolate instrumentation cost from parallel speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use npd_amp::{AmpConfig, AmpDecoder, AmpWorkspace};
use npd_bench::sample_run;
use npd_core::NoiseModel;
use npd_telemetry::TelemetrySink;
use std::hint::black_box;

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead/amp");
    group.sample_size(10);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool construction cannot fail");
    // The decoder_throughput n=16384 configuration, verbatim, so the
    // `baseline` row here is directly comparable to its `reuse` row.
    let (n, k, m, seed) = (16_384usize, 11, 600, 12);
    let run = sample_run(n, k, m, NoiseModel::z_channel(0.1), seed);
    let decoder = AmpDecoder::new(AmpConfig::default());

    let mut baseline_ws = AmpWorkspace::new();
    group.bench_function(BenchmarkId::new("baseline", format!("n={n}")), |b| {
        b.iter(|| {
            pool.install(|| black_box(decoder.decode_with_trace_using(&run, &mut baseline_ws)))
        })
    });

    let mut off_ws = AmpWorkspace::new();
    off_ws.set_telemetry(TelemetrySink::off());
    group.bench_function(BenchmarkId::new("off", format!("n={n}")), |b| {
        b.iter(|| pool.install(|| black_box(decoder.decode_with_trace_using(&run, &mut off_ws))))
    });

    let mut rec_ws = AmpWorkspace::new();
    rec_ws.set_telemetry(TelemetrySink::recording());
    group.bench_function(BenchmarkId::new("recording", format!("n={n}")), |b| {
        b.iter(|| pool.install(|| black_box(decoder.decode_with_trace_using(&run, &mut rec_ws))))
    });

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
