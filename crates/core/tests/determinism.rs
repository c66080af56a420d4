//! End-to-end determinism: the entire pipeline — synthetic data generation,
//! record encoding, and training — is a pure function of its seeds. Two runs
//! with the same seed must produce **bit-identical** class hypervectors.
//!
//! This is the property the hermetic toolkit exists to protect: with the
//! generators in-tree, no dependency upgrade can ever silently reshuffle the
//! random streams behind published experiment numbers.

use hdc::{Dim, RecordEncoder};
use hdc_datasets::SyntheticSpec;
use lehdc::baseline::train_baseline;
use lehdc::lehdc_trainer::train_lehdc;
use lehdc::{EncodedDataset, EpochEngine, HdcModel, LehdcConfig};

fn train_once(seed: u64) -> (HdcModel, EncodedDataset) {
    let spec = SyntheticSpec::builder("det", 12, 4)
        .prototypes_per_class(2)
        .noise(0.1)
        .train_samples(80)
        .test_samples(20)
        .build()
        .unwrap();
    let data = spec.generate(seed).unwrap();
    let enc = RecordEncoder::builder(Dim::new(1024), 12)
        .levels(8)
        .seed(seed)
        .build()
        .unwrap();
    let train = EncodedDataset::encode(&data.train, &enc, &EpochEngine::new(2)).unwrap();
    (train_baseline(&train, seed, &EpochEngine::default()).unwrap(), train)
}

#[test]
fn baseline_training_is_bit_identical_across_runs() {
    let (first, _) = train_once(42);
    let (second, _) = train_once(42);
    assert_eq!(first.n_classes(), second.n_classes());
    for (k, (a, b)) in first
        .class_hvs()
        .iter()
        .zip(second.class_hvs())
        .enumerate()
    {
        assert_eq!(a, b, "class {k} hypervector differs between runs");
    }
}

#[test]
fn different_seeds_give_different_models() {
    let (a, _) = train_once(42);
    let (b, _) = train_once(43);
    assert_ne!(
        a.class_hvs(),
        b.class_hvs(),
        "distinct seeds should not collide"
    );
}

#[test]
fn one_worker_set_serves_the_whole_pipeline_deterministically() {
    // Encode → train → classify reuses the same parked worker set for every
    // dispatch (pool handles are just widths over one process-global set),
    // and the results are bit-identical whether that set is used at width 1
    // or width 4.
    let spec = SyntheticSpec::builder("pool", 12, 4)
        .prototypes_per_class(2)
        .noise(0.1)
        .train_samples(80)
        .test_samples(20)
        .build()
        .unwrap();
    let data = spec.generate(11).unwrap();
    let enc = RecordEncoder::builder(Dim::new(1024), 12)
        .levels(8)
        .seed(11)
        .build()
        .unwrap();
    let queries = EncodedDataset::encode(&data.test, &enc, &EpochEngine::default()).unwrap();

    let jobs_before = threadpool::dispatched_jobs();
    let run = |threads: usize| {
        let engine = EpochEngine::new(threads);
        let train = EncodedDataset::encode(&data.train, &enc, &engine).unwrap();
        let cfg = LehdcConfig::quick()
            .with_epochs(2)
            .with_seed(11)
            .with_threads(threads);
        let (model, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        let predictions = engine.classify_epoch(&model, queries.hvs());
        (model, predictions)
    };
    let (m1, p1) = run(1);
    let (m4, p4) = run(4);
    assert_eq!(
        m1.class_hvs(),
        m4.class_hvs(),
        "pool width must not change the trained model"
    );
    assert_eq!(p1, p4, "pool width must not change classifications");
    // The width-4 run fanned out through the persistent pool: many jobs, but
    // never more parked workers than the widest dispatch needs.
    assert!(
        threadpool::dispatched_jobs() > jobs_before,
        "parallel pipeline should dispatch pool jobs"
    );
    assert!(
        threadpool::spawned_workers() <= 7,
        "worker set must stay bounded by the widest pool ever used (8)"
    );
}

#[test]
fn metrics_recorder_leaves_training_bit_identical() {
    // The observability layer reads only the wall clock: with the recorder
    // enabled (and the pool's runtime stats on), the trained class
    // hypervectors and the non-timing history fields must be bit-identical
    // to an uninstrumented run — at one thread and at four.
    let (_, train) = train_once(9);
    for threads in [1, 4] {
        let cfg = LehdcConfig::quick()
            .with_epochs(3)
            .with_seed(9)
            .with_threads(threads);
        let (plain, h_plain) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();

        let rec = obs::Recorder::builder().build();
        obs::set_runtime_stats(true);
        let result = train_lehdc(&train, None, &cfg, &rec);
        obs::set_runtime_stats(false);
        let (recorded, h_rec) = result.unwrap();

        assert_eq!(
            plain.class_hvs(),
            recorded.class_hvs(),
            "threads={threads}: recorder must not change the trained model"
        );
        assert_eq!(h_plain.len(), h_rec.len());
        for (a, b) in h_plain.records().iter().zip(h_rec.records()) {
            assert_eq!(
                *a,
                b.without_timing(),
                "threads={threads}: only timing may differ between runs"
            );
            assert!(
                b.timing.is_some(),
                "threads={threads}: instrumented records must carry timing"
            );
        }
        // The recorder actually observed the training run.
        let names: Vec<String> = rec.metrics().into_iter().map(|(n, _)| n).collect();
        for expected in [
            "train/epoch_ns",
            "train/assembly_ns",
            "train/forward_ns",
            "train/backward_ns",
            "train/optimizer_ns",
            "train/eval_ns",
            "train/lr",
            "train/samples_per_sec",
            "layer/forward_ns",
            "layer/backward_ns",
            "layer/fused_step_ns",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }
}

#[test]
fn lehdc_training_is_bit_identical_across_runs() {
    // The discriminative trainer adds batch shuffling, dropout masks, and
    // binarized weight updates on top of the baseline path — all seeded.
    let (_, train) = train_once(7);
    let cfg = LehdcConfig::quick().with_epochs(2).with_seed(7);
    let (first, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
    let (second, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
    assert_eq!(
        first.class_hvs(),
        second.class_hvs(),
        "LeHDC training must replay bit-identically from one seed"
    );
}
