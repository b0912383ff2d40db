//! Known-bad fixture for `impl-purity`: exactly four findings.
//!
//! 1. a wall-clock read inside a `PoolingDesign` impl
//! 2. a process-environment read inside a `PopulationModel` impl
//! 3. a mutable static touched from a `NoiseModel` impl
//! 4. interior-mutable state inside the inherent `DesignSpec` impl, where
//!    the design samplers live
//!
//! None of the methods takes an RNG parameter, so these are pure
//! `impl-purity` findings with no `rng-provenance` overlap.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::SystemTime;

struct ClockDesign;

impl PoolingDesign for ClockDesign {
    fn degree(&self, n: usize) -> usize {
        let jitter = SystemTime::now();
        let _ = jitter;
        n / 2
    }
}

struct EnvPopulation;

impl PopulationModel for EnvPopulation {
    fn marginals(&self, n: usize) -> Vec<f64> {
        let bias = std::env::var("NPD_BIAS").is_ok();
        vec![if bias { 0.9 } else { 0.1 }; n]
    }
}

static CALLS: AtomicUsize = AtomicUsize::new(0);

struct CountedNoise;

impl NoiseModel for CountedNoise {
    fn apply(&self, y: u32) -> u32 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        y
    }
}

enum DesignSpec {
    Iid,
}

impl DesignSpec {
    fn pool_size(&self, gamma: usize) -> usize {
        let seen = std::cell::Cell::new(gamma);
        seen.get()
    }
}
