//! Sampling cost of each [`npd_core::DesignSpec`] pooling design.
//!
//! The design layer is the extension point every workload plugs into, so
//! BENCH tracks what a full graph sample costs per design at a mid-size
//! operating point (`n = 4096`, `m = 2048`, sparse `Γ = n/8`) plus the
//! paper's dense `Γ = n/2` for the i.i.d. baseline. The sparse point is
//! the interesting one for the structured designs: the doubly regular
//! construction's switch-repair workload scales with the number of
//! within-pool collisions, which the dense regime inflates quadratically
//! (`~n·d²/m`) — at `Γ = n/8` the repair stays a small fraction of the
//! dealing cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use npd_core::{DesignSpec, PoolingDesign};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const N: usize = 4096;
const M: usize = 2048;

fn bench_design_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("design_throughput");
    group.sample_size(10);

    let sparse = N / 8;
    let cases: Vec<(DesignSpec, usize, &str)> = vec![
        (DesignSpec::Iid, N / 2, "iid/dense"),
        (DesignSpec::Iid, sparse, "iid/sparse"),
        (DesignSpec::GammaSubset, sparse, "gamma-subset/sparse"),
        (DesignSpec::DoublyRegular, sparse, "doubly-regular/sparse"),
        (DesignSpec::SparseColumn, sparse, "sparse-column/sparse"),
        (
            DesignSpec::spatially_coupled(),
            sparse,
            "spatially-coupled/sparse",
        ),
    ];

    for (design, gamma, label) in cases {
        group.bench_with_input(
            BenchmarkId::new("sample", label),
            &(design, gamma),
            |b, &(design, gamma)| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(0x000D_51BE);
                    black_box(design.sample(N, M, gamma, &mut rng))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_design_throughput);
criterion_main!(benches);
