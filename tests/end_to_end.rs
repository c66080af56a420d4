//! Cross-crate integration tests: dataset generation (`hdc-datasets`) →
//! encoding (`hdc`) → training (`lehdc`/`binnet`) → evaluation and
//! persistence, all through the `lehdc-suite` facade.

use lehdc_suite::datasets::BenchmarkProfile;
use lehdc_suite::hdc::Dim;
use lehdc_suite::lehdc::{io, LehdcConfig, Pipeline, Strategy};

fn small_pipeline(seed: u64) -> Pipeline {
    let data = BenchmarkProfile::ucihar()
        .with_features(32)
        .with_samples(240, 120)
        .generate(seed)
        .expect("generate");
    Pipeline::builder(&data)
        .dim(Dim::new(1024))
        .seed(seed)
        .threads(2)
        .build()
        .expect("build pipeline")
}

#[test]
fn lehdc_generalizes_better_than_baseline() {
    // Averaged over seeds so the assertion is about the method, not one
    // lucky draw.
    let mut base_sum = 0.0;
    let mut lehdc_sum = 0.0;
    for seed in 0..3 {
        let pipeline = small_pipeline(seed);
        base_sum += pipeline
            .run(Strategy::Baseline)
            .unwrap()
            .test_accuracy;
        lehdc_sum += pipeline
            .run(Strategy::Lehdc(LehdcConfig::quick().with_epochs(20)))
            .unwrap()
            .test_accuracy;
    }
    assert!(
        lehdc_sum > base_sum,
        "mean LeHDC test accuracy {:.3} must beat mean baseline {:.3}",
        lehdc_sum / 3.0,
        base_sum / 3.0
    );
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = small_pipeline(9);
    let b = small_pipeline(9);
    for strategy in [Strategy::Baseline, Strategy::retraining_quick()] {
        let oa = a.run(strategy.clone()).unwrap();
        let ob = b.run(strategy).unwrap();
        assert_eq!(oa.test_accuracy, ob.test_accuracy);
        assert_eq!(oa.model, ob.model);
    }
}

#[test]
fn trained_model_roundtrips_through_disk() {
    let pipeline = small_pipeline(4);
    let outcome = pipeline
        .run(Strategy::Lehdc(LehdcConfig::quick().with_epochs(5)))
        .unwrap();
    let model = outcome.model.expect("lehdc yields a model");
    let path = std::env::temp_dir().join("lehdc_integration_model.bin");
    io::save_model(&model, &path).unwrap();
    let restored = io::load_model(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored, model);
    // The restored model classifies identically.
    let test = pipeline.encoded_test();
    let engine = pipeline.engine();
    assert_eq!(
        engine.classify_epoch(&restored, test.hvs()),
        engine.classify_epoch(&model, test.hvs())
    );
}

#[test]
fn zero_inference_overhead_is_structural() {
    // The paper's headline systems claim: a LeHDC model and a baseline
    // model are the *same artifact* — same type, same dimension, same class
    // count, same storage. Inference code cannot tell them apart.
    let pipeline = small_pipeline(5);
    let base = pipeline.run(Strategy::Baseline).unwrap().model.unwrap();
    let learned = pipeline
        .run(Strategy::Lehdc(LehdcConfig::quick().with_epochs(5)))
        .unwrap()
        .model
        .unwrap();
    assert_eq!(base.dim(), learned.dim());
    assert_eq!(base.n_classes(), learned.n_classes());
    let mut base_bytes = Vec::new();
    let mut learned_bytes = Vec::new();
    io::write_model(&base, &mut base_bytes).unwrap();
    io::write_model(&learned, &mut learned_bytes).unwrap();
    assert_eq!(
        base_bytes.len(),
        learned_bytes.len(),
        "identical storage footprint"
    );
}

#[test]
fn every_strategy_is_above_chance_end_to_end() {
    let pipeline = small_pipeline(6);
    let chance = 1.0 / 6.0;
    for strategy in [
        Strategy::Baseline,
        Strategy::multimodel_quick(),
        Strategy::retraining_quick(),
        Strategy::enhanced_quick(),
        Strategy::adaptive_quick(),
        Strategy::lehdc_quick(),
        Strategy::NonBinary {
            alpha: 1.0,
            iterations: 10,
        },
    ] {
        let name = strategy.name();
        let outcome = pipeline.run(strategy).unwrap();
        assert!(
            outcome.test_accuracy > 1.5 * chance,
            "{name}: test accuracy {:.3} too close to chance",
            outcome.test_accuracy
        );
    }
}

#[test]
fn histories_expose_training_trajectories() {
    let pipeline = small_pipeline(7);
    let outcome = pipeline
        .run(Strategy::Retraining(lehdc_suite::lehdc::RetrainConfig {
            iterations: 8,
            ..Default::default()
        }))
        .unwrap();
    assert_eq!(outcome.history.len(), 8);
    // test accuracy was evaluated every iteration (Fig. 3 support)
    assert_eq!(outcome.history.test_series().len(), 8);
}
