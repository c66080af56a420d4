//! The paper's claim that LeHDC "can work with any encoders": train with
//! the N-gram encoder instead of the record encoder and verify everything
//! still composes, because the trainers only see `EncodedDataset`.

use lehdc_suite::datasets::BenchmarkProfile;
use lehdc_suite::hdc::{Dim, NgramEncoder};
use lehdc_suite::lehdc::baseline::train_baseline;
use lehdc_suite::lehdc::lehdc_trainer::train_lehdc;
use lehdc_suite::lehdc::{EncodedDataset, EpochEngine, LehdcConfig};

#[test]
fn lehdc_trains_on_ngram_encodings() {
    let data = BenchmarkProfile::pamap()
        .with_features(24)
        .with_samples(200, 80)
        .generate(11)
        .unwrap();
    let encoder = NgramEncoder::new(Dim::new(1024), 24, 3, 16, (0.0, 1.0), 11).unwrap();
    let engine = EpochEngine::new(2);
    let train = EncodedDataset::encode(&data.train, &encoder, &engine).unwrap();
    let test = EncodedDataset::encode(&data.test, &encoder, &engine).unwrap();

    let baseline = train_baseline(&train, 0, &engine).unwrap();
    let cfg = LehdcConfig::quick().with_epochs(15);
    let (learned, history) =
        train_lehdc(&train, Some(&test), &cfg, &obs::Recorder::disabled()).unwrap();

    let base_acc = baseline.accuracy(test.hvs(), test.labels());
    let lehdc_acc = learned.accuracy(test.hvs(), test.labels());
    assert!(
        base_acc > 0.2,
        "n-gram baseline should be above chance, got {base_acc}"
    );
    assert!(
        lehdc_acc >= base_acc,
        "LeHDC on n-gram encodings ({lehdc_acc}) should not trail the baseline ({base_acc})"
    );
    assert_eq!(history.len(), 15);
}

#[test]
fn record_and_ngram_encoders_yield_same_artifact_shape() {
    let data = BenchmarkProfile::pamap()
        .with_features(16)
        .with_samples(50, 20)
        .generate(12)
        .unwrap();
    let record = lehdc_suite::hdc::RecordEncoder::builder(Dim::new(512), 16)
        .seed(1)
        .build()
        .unwrap();
    let ngram = NgramEncoder::new(Dim::new(512), 16, 2, 16, (0.0, 1.0), 1).unwrap();
    let engine = EpochEngine::default();
    let enc_record = EncodedDataset::encode(&data.train, &record, &engine).unwrap();
    let enc_ngram = EncodedDataset::encode(&data.train, &ngram, &engine).unwrap();
    assert_eq!(enc_record.dim(), enc_ngram.dim());
    assert_eq!(enc_record.len(), enc_ngram.len());
    assert_eq!(enc_record.labels(), enc_ngram.labels());
}
