//! Regression pins for the live violations found by the static
//! determinism tooling (`cargo run -p xtask -- check`):
//!
//! * `decoders::mcmc` — the per-proposal query-delta accumulator was an
//!   unordered `HashMap` (PR 7, `hash-iteration`), making the float energy
//!   difference (and with it accept/reject decisions) depend on the
//!   per-process hash seed. It is now a sorted merge of the two swapped
//!   agents' adjacency lists; these fingerprints pin the resulting
//!   bit-exact output stream.
//! * `core::design::DoublyRegularDesign` — its switch-repair multiplicity
//!   maps are membership-probe-only (annotated as such); the sampled graph
//!   stream must therefore be *unchanged* by the audit. The fingerprint
//!   here pins that stream against accidental future iteration.
//! * `netsim::network::gate_copy` — the delay gate drew from the
//!   per-message RNG only on the not-dropped path (PR 9,
//!   `rng-provenance`): the number of variates consumed depended on the
//!   drop outcome. Harmless today only because that rng dies with the
//!   message, it becomes a replay bug the moment a draw is added after the
//!   gates. Both draws are now hoisted above the drop return, and the
//!   analyzer run here pins the whole crate free of provenance hazards.

use noisy_pooled_data::core::{
    DoublyRegularDesign, Instance, NoiseModel, PoolingDesign, PoolingGraph,
};
use noisy_pooled_data::decoders::{McmcConfig, McmcDecoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a mixer used across the repo's stream-pinning tests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn graph_fingerprint(g: &PoolingGraph) -> u64 {
    let mut h = Fnv::new();
    h.mix(g.queries().len() as u64);
    for q in g.queries() {
        h.mix(u64::from(q.total_slots()));
        for (agent, count) in q.iter() {
            h.mix(u64::from(agent));
            h.mix(u64::from(count));
        }
    }
    h.0
}

/// Fingerprint of `DoublyRegularDesign.sample(n=96, m=48, Γ=24, seed=2204)`.
/// The PR 7 hash-iteration audit only *annotated* the membership-only maps
/// in the switch-repair pass, so this pin doubles as proof the audit left
/// the sampling stream untouched.
const DOUBLY_REGULAR_FINGERPRINT: u64 = 0xCBE6_D311_F5DE_C71D;

#[test]
fn doubly_regular_stream_is_unchanged_by_the_hash_audit() {
    let mut rng = StdRng::seed_from_u64(2_204);
    let g = DoublyRegularDesign.sample(96, 48, 24, &mut rng);
    assert_eq!(
        graph_fingerprint(&g),
        DOUBLY_REGULAR_FINGERPRINT,
        "DoublyRegularDesign's sampling stream moved; its HashMaps are \
         annotated membership-only and must not influence output order"
    );
}

fn mcmc_fingerprint(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let run = Instance::builder(160)
        .k(6)
        .queries(120)
        .noise(NoiseModel::z_channel(0.08))
        .build()
        .expect("valid instance")
        .sample(&mut rng);
    let out = McmcDecoder::with_config(McmcConfig {
        steps: 4_000,
        ..McmcConfig::default()
    })
    .solve(&run);
    let mut h = Fnv::new();
    h.mix(out.accepted as u64);
    h.mix(out.best_energy.to_bits());
    h.mix(out.initial_energy.to_bits());
    for &a in &out.best_ones {
        h.mix(u64::from(a));
    }
    for &occ in &out.occupancy {
        h.mix(occ.to_bits());
    }
    h.0
}

/// Fingerprints of the annealed MCMC output stream under the sorted-merge
/// delta accumulator (PR 7). Before that change the accumulation order of
/// the energy difference came from `HashMap` iteration, i.e. the
/// per-process hash seed: these values were not even stable across *runs*.
const MCMC_FINGERPRINTS: [(u64, u64); 2] =
    [(11, 0xD464_DC79_6008_1D21), (2_022, 0xA240_A9AD_E8B1_60B3)];

#[test]
fn mcmc_output_stream_is_pinned_after_sorted_delta_merge() {
    for (seed, expected) in MCMC_FINGERPRINTS {
        assert_eq!(
            mcmc_fingerprint(seed),
            expected,
            "MCMC output stream moved at seed {seed}; the delta merge must \
             visit queries in ascending id order"
        );
    }
}

/// PR 9 regression: `gate_copy` used to draw the delay variate only after
/// the data-dependent drop `return`, so the per-message stream length
/// depended on the drop outcome — exactly the hazard `rng-provenance`
/// exists to catch (this test failed before the draws were hoisted).
/// Running the analyzer over the whole crate rather than one fn also keeps
/// new netsim code from reintroducing the pattern elsewhere.
#[test]
fn netsim_has_no_rng_provenance_hazards() {
    let netsim_src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/netsim/src");
    let outcome = xtask::engine::check_paths(&[netsim_src]).expect("netsim sources read");
    let provenance: Vec<_> = outcome
        .reports
        .iter()
        .filter(|r| r.finding.rule == "rng-provenance")
        .collect();
    assert!(
        provenance.is_empty(),
        "netsim consumes RNG streams data-dependently:\n{provenance:#?}"
    );
}
