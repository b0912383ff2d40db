//! Ablation benches for the design decisions called out in DESIGN.md:
//!
//! * score centering (noise-aware vs the printed plain score) under false
//!   positives — quality ablation timed on equal workloads;
//! * query size Γ ∈ {n/4, n/2, 3n/4} — the paper fixes Γ = n/2;
//! * two-step refinement on top of greedy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use npd_core::{
    Centering, Decoder, DesignSpec, GreedyDecoder, IncrementalSim, Instance, NoiseModel,
    TwoStepDecoder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_centering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_centering");
    group.sample_size(20);
    let run = Instance::builder(1_000)
        .k(6)
        .queries(400)
        .noise(NoiseModel::channel(0.05, 0.05))
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(1));
    for (label, centering) in [
        ("noise-aware", Centering::NoiseAware),
        ("plain", Centering::Plain),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &centering,
            |b, &centering| {
                let decoder = GreedyDecoder::with_centering(centering);
                b.iter(|| black_box(decoder.decode(&run)));
            },
        );
    }
    group.finish();
}

fn bench_query_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_query_size");
    group.sample_size(10);
    let n = 1_000usize;
    for &frac in &[4usize, 2] {
        let gamma = n / frac;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("gamma=n/{frac}")),
            &gamma,
            |b, &gamma| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut sim = IncrementalSim::with_design(
                        n,
                        6,
                        gamma,
                        NoiseModel::z_channel(0.1),
                        DesignSpec::Iid,
                        seed,
                    );
                    black_box(sim.required_queries(50_000).expect("separates"))
                });
            },
        );
    }
    group.finish();
}

fn bench_two_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_two_step");
    group.sample_size(20);
    let run = Instance::builder(1_000)
        .k(6)
        .queries(300)
        .noise(NoiseModel::z_channel(0.2))
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(2));
    group.bench_function("greedy", |b| {
        let d = GreedyDecoder::new();
        b.iter(|| black_box(d.decode(&run)));
    });
    group.bench_function("two-step", |b| {
        let d = TwoStepDecoder::new();
        b.iter(|| black_box(d.decode(&run)));
    });
    group.finish();
}

criterion_group!(benches, bench_centering, bench_query_size, bench_two_step);
criterion_main!(benches);
