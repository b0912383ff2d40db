//! Regression pins for the live violations found by the static
//! determinism tooling (`cargo run -p xtask -- check`):
//!
//! * `decoders::mcmc` — the per-proposal query-delta accumulator was an
//!   unordered `HashMap` (PR 7, `hash-iteration`), making the float energy
//!   difference (and with it accept/reject decisions) depend on the
//!   per-process hash seed. It is now a sorted merge of the two swapped
//!   agents' adjacency lists; these fingerprints pin the resulting
//!   bit-exact output stream.
//! * `core::design::DesignSpec::DoublyRegular` — its switch-repair
//!   multiplicity maps are membership-probe-only (annotated as such); the
//!   sampled graph stream must therefore be *unchanged* by the audit. The
//!   fingerprint here pins that stream against accidental future iteration.
//! * `netsim::network::gate_copy` — the delay gate drew from the
//!   per-message RNG only on the not-dropped path (PR 9,
//!   `rng-provenance`): the number of variates consumed depended on the
//!   drop outcome. Harmless today only because that rng dies with the
//!   message, it becomes a replay bug the moment a draw is added after the
//!   gates. Both draws are now hoisted above the drop return, and the
//!   analyzer run here pins the whole crate free of provenance hazards.

use noisy_pooled_data::core::{
    CategoricalInstance, DesignSpec, Instance, NoiseModel, PoolingDesign, PoolingGraph,
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

/// Fingerprint of `DesignSpec::DoublyRegular.sample(n=96, m=48, Γ=24, seed=2204)`.
/// The PR 7 hash-iteration audit only *annotated* the membership-only maps
/// in the switch-repair pass, so this pin doubles as proof the audit left
/// the sampling stream untouched.
const DOUBLY_REGULAR_FINGERPRINT: u64 = 0xCBE6_D311_F5DE_C71D;

#[test]
fn doubly_regular_stream_is_unchanged_by_the_hash_audit() {
    let mut rng = StdRng::seed_from_u64(2_204);
    let g = DesignSpec::DoublyRegular.sample(96, 48, 24, &mut rng);
    assert_eq!(
        graph_fingerprint(&g),
        DOUBLY_REGULAR_FINGERPRINT,
        "the doubly regular sampling stream moved; its HashMaps are \
         annotated membership-only and must not influence output order"
    );
}

/// Every design's sampling stream at Γ = 37 on n = 120, m = 90, where the
/// doubly regular pools come out ragged (37 and 38 slots). Per design:
/// the batch graph of `spec.sample`, the graph and result bits of
/// `Instance::sample`, and the graph of `CategoricalInstance::sample`.
/// Recorded before the design layer was folded into `DesignSpec`; a moved
/// pin is a behaviour change, not a stale constant.
const DESIGN_STREAM_PINS: [(u64, u64, u64); 6] = [
    (
        0xB909_8F1A_4DE0_0B2E,
        0xAF52_F356_1CB6_8928,
        0x4781_B034_716C_A24B,
    ), // iid
    (
        0x6D48_93CA_1B86_FB00,
        0x7A1D_AA55_ABF5_D045,
        0x8F79_9743_1EE3_B184,
    ), // gamma-subset
    (
        0xDC1D_5E57_C500_F4CB,
        0x263F_189D_CCD6_7EE4,
        0x574A_6C4A_05B9_5B7C,
    ), // balanced-deck
    (
        0xFB6D_BD67_6C60_7E6F,
        0xA24F_F3DA_4668_619E,
        0xA3E9_D5D4_26DF_1D17,
    ), // doubly-regular
    (
        0x065C_9360_E80C_59B5,
        0xF3D0_6C49_7DEF_3A3E,
        0xE311_EDD1_3724_B3D9,
    ), // sparse-column
    (
        0xF8D4_EC36_6B26_EA4D,
        0x99A8_2A77_E19A_5BF2,
        0x56CF_09ED_1955_1216,
    ), // spatially-coupled
];

#[test]
fn design_streams_are_pinned() {
    let specs = [
        DesignSpec::Iid,
        DesignSpec::GammaSubset,
        DesignSpec::BalancedDeck,
        DesignSpec::DoublyRegular,
        DesignSpec::SparseColumn,
        DesignSpec::SpatiallyCoupled { bands: 4 },
    ];
    for (i, (spec, pins)) in specs.into_iter().zip(DESIGN_STREAM_PINS).enumerate() {
        let seed = 0xD5_0000 + i as u64;
        let batch = spec.sample(120, 90, 37, &mut StdRng::seed_from_u64(seed));
        let run = Instance::builder(120)
            .k(4)
            .queries(90)
            .query_size(37)
            .noise(NoiseModel::channel(0.1, 0.05))
            .design(spec)
            .build()
            .expect("valid pin configuration")
            .sample(&mut StdRng::seed_from_u64(seed));
        let mut h = Fnv::new();
        h.mix(graph_fingerprint(run.graph()));
        for &r in run.results() {
            h.mix(r.to_bits());
        }
        let categorical = CategoricalInstance::new(120, vec![3, 2], 90)
            .expect("valid pin configuration")
            .with_gamma(37)
            .unwrap()
            .with_design(spec)
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed));
        let got = (
            graph_fingerprint(&batch),
            h.0,
            graph_fingerprint(categorical.graph()),
        );
        assert_eq!(
            got, pins,
            "{spec}: sampling stream moved (batch, instance, categorical): {got:#018X?}"
        );
    }
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
