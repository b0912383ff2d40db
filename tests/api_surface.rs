//! The facade's public API surface: re-exports, trait bounds and common
//! trait implementations that downstream users rely on.

use noisy_pooled_data::adaptive::{Dorfman, IndividualTesting, RecursiveSplitting, Transcript};
use noisy_pooled_data::amp::DenoiserKind;
use noisy_pooled_data::core::{
    Centering, Confusion, DesignSpec, Estimate, GreedyDecoder, Instance, InstanceError, NoiseModel,
    Regime,
};
use noisy_pooled_data::decoders::{
    BpConfig, BpDecoder, FistaConfig, FistaDecoder, LmmseDecoder, McmcConfig, McmcDecoder,
    MlDecoder, MlError,
};
use noisy_pooled_data::netsim::NodeTraffic;
use noisy_pooled_data::numerics::stats::{BoxPlot, Summary, Welford};
use noisy_pooled_data::sortnet::SortingNetwork;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<Instance>();
    assert_send_sync::<NoiseModel>();
    assert_send_sync::<Estimate>();
    assert_send_sync::<GreedyDecoder>();
    assert_send_sync::<SortingNetwork>();
    assert_send_sync::<Welford>();
    assert_send_sync::<BpDecoder>();
    assert_send_sync::<McmcDecoder>();
    assert_send_sync::<FistaDecoder>();
    assert_send_sync::<LmmseDecoder>();
    assert_send_sync::<MlDecoder>();
    assert_send_sync::<RecursiveSplitting>();
    assert_send_sync::<Dorfman>();
    assert_send_sync::<IndividualTesting>();
    assert_send_sync::<Transcript>();
}

#[test]
fn errors_implement_std_error() {
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<InstanceError>();
    assert_error::<noisy_pooled_data::netsim::MaxRoundsExceeded>();
    assert_error::<noisy_pooled_data::core::incremental::BudgetExhausted>();
    assert_error::<MlError>();
    assert_error::<noisy_pooled_data::core::estimation::EstimationError>();
}

#[test]
fn key_types_serialize() {
    // serde support is part of the public contract (C-SERDE); verify the
    // bounds hold without pulling in a serialization format.
    fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
    assert_serde::<NoiseModel>();
    assert_serde::<Regime>();
    assert_serde::<Instance>();
    assert_serde::<BoxPlot>();
    assert_serde::<Summary>();
    assert_serde::<SortingNetwork>();
    assert_serde::<DesignSpec>();
    assert_serde::<Confusion>();
    assert_serde::<DenoiserKind>();
    assert_serde::<NodeTraffic>();
    assert_serde::<noisy_pooled_data::core::estimation::ChannelEstimate>();
    assert_serde::<BpConfig>();
    assert_serde::<McmcConfig>();
    assert_serde::<FistaConfig>();
}

#[test]
fn decoder_trait_objects_cover_both_families() {
    // Heterogeneous collections through the facade: non-adaptive decoders
    // and adaptive strategies both box cleanly.
    use noisy_pooled_data::adaptive::Strategy;
    use noisy_pooled_data::core::Decoder;
    let decoders: Vec<Box<dyn Decoder>> = noisy_pooled_data::decoders::standard_zoo();
    assert_eq!(decoders.len(), 4);
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(RecursiveSplitting::new(1)),
        Box::new(Dorfman::new(4, 1)),
        Box::new(IndividualTesting::new(1)),
    ];
    let names: Vec<&str> = strategies.iter().map(|s| s.name()).collect();
    assert_eq!(names.len(), 3);
}

#[test]
fn display_implementations_are_informative() {
    assert_eq!(NoiseModel::z_channel(0.25).to_string(), "z-channel(p=0.25)");
    assert_eq!(Regime::sublinear(0.5).to_string(), "sublinear(θ=0.5)");
    let err = Instance::builder(1).k(1).queries(1).build().unwrap_err();
    assert!(err.to_string().contains("at least 2"));
}

#[test]
fn debug_implementations_are_nonempty() {
    assert!(!format!("{:?}", GreedyDecoder::new()).is_empty());
    assert!(!format!("{:?}", Centering::NoiseAware).is_empty());
    assert!(!format!("{:?}", NoiseModel::Noiseless).is_empty());
}

#[test]
fn facade_reexports_are_usable_together() {
    use rand::SeedableRng;
    // One expression touching five member crates through the facade.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let run = Instance::builder(100)
        .k(2)
        .queries(120)
        .build()
        .unwrap()
        .sample(&mut rng);
    let scores = GreedyDecoder::new().scores(&run);
    let summary = Summary::from_slice(&scores);
    let bound =
        noisy_pooled_data::theory::bounds::z_channel_sublinear_queries(100.0, 0.25, 0.0, 0.05);
    assert!(summary.count == 100 && bound > 0.0);
}
