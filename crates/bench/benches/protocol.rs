//! The distributed protocol end to end: message-passing simulation
//! including the Batcher sorting phase, versus the sequential decoder on
//! the same run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use npd_bench::sample_run;
use npd_core::distributed::{self, ProtocolOptions};
use npd_core::{Decoder, GreedyDecoder, NoiseModel};
use std::hint::black_box;

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_protocol");
    group.sample_size(10);
    for &n in &[256usize, 1_024] {
        let run = sample_run(n, 4, n / 2, NoiseModel::z_channel(0.1), 7);
        group.bench_with_input(BenchmarkId::new("netsim", n), &run, |b, run| {
            let options = ProtocolOptions::default();
            b.iter(|| black_box(distributed::run_protocol_chaos(run, options).expect("quiesces")));
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), &run, |b, run| {
            let decoder = GreedyDecoder::new();
            b.iter(|| black_box(decoder.decode(run)));
        });
    }
    group.finish();
}

fn bench_sorting_network_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("sorting_network_build");
    group.sample_size(20);
    for &n in &[1_024usize, 16_384] {
        group.bench_with_input(BenchmarkId::new("batcher", n), &n, |b, &n| {
            b.iter(|| black_box(npd_sortnet::SortingNetwork::batcher_odd_even(n)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocol, bench_sorting_network_construction);
criterion_main!(benches);
