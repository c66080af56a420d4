//! Determinism suite for the comparison strategies on the batched epoch
//! engine.
//!
//! The batched rewrite changed the *reference semantics* of retraining: a
//! misclassification pass now applies one exact integer vote total per
//! (class, dimension) instead of one f32 `add_scaled` per misclassified
//! sample. This suite pins what that buys and what it costs:
//!
//! - retraining, enhanced and adaptive are **bit-identical** across thread
//!   counts and engine query-block sizes (the integer votes make sample
//!   order irrelevant), multi-model and non-binary across thread counts;
//! - the integer-vote application matches a naive sequential integer-vote
//!   reference exactly, bit for bit;
//! - the accuracy *trajectory* of the new semantics tracks the historical
//!   per-sample f32 loop within a small tolerance (the two round
//!   differently, so bits may differ — accuracy must not);
//! - the enhanced/adaptive tie-break now prefers the **lowest** class index,
//!   matching `model.classify` (regression test with an engineered tie);
//! - attaching an observability recorder never perturbs any of the five
//!   iterative strategies, on any engine of that grid;
//! - pinned goldens on a fixed corpus catch any silent semantic drift.
//!
//! `scripts/check.sh` runs this suite under `LEHDC_KERNEL=scalar`, under
//! `LEHDC_KERNEL=avx2` and, on AVX-512 hosts, with it unset (the avx512
//! tier), so tier invariance is enforced as well.

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RealHv};
use testkit::Rng;
use lehdc::adaptive::train_adaptive;
use lehdc::baseline::{accumulate_class_sums, train_baseline};
use lehdc::enhanced::train_enhanced;
use lehdc::multimodel::train_multimodel;
use lehdc::nonbinary::train_nonbinary;
use lehdc::retrain::train_retraining;
use lehdc::{
    AdaptiveConfig, EncodedDataset, EpochEngine, HdcModel, MultiModelConfig, RetrainConfig,
    TrainingHistory,
};

/// A multi-modal corpus the baseline cannot separate: each class owns
/// several random prototypes and every sample is a noisy copy of one.
fn corpus(classes: usize, protos: usize, dim: usize, samples: usize, seed: u64) -> EncodedDataset {
    let dim = Dim::new(dim);
    let mut rng = rng_for(seed, 0xC0_DE);
    let prototypes: Vec<Vec<BinaryHv>> = (0..classes)
        .map(|_| (0..protos).map(|_| BinaryHv::random(dim, &mut rng)).collect())
        .collect();
    let mut hvs = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let class = i % classes;
        let proto = &prototypes[class][(i / classes) % protos];
        let mut hv = proto.clone();
        // ~30% noisy flips (with replacement): hard enough that the baseline
        // misclassifies and every iteration performs real updates — the
        // determinism assertions are vacuous on separable data.
        for _ in 0..(3 * dim.get()) / 10 {
            let j = (rng.random::<u64>() % dim.get() as u64) as usize;
            hv.flip(j);
        }
        hvs.push(hv);
        labels.push(class);
    }
    EncodedDataset::from_parts(hvs, labels, classes).unwrap()
}

fn strip_timing(history: &TrainingHistory) -> Vec<lehdc::EpochRecord> {
    history.records().iter().map(|r| r.without_timing()).collect()
}

/// An enabled recorder that writes to nowhere — instrumentation on, output
/// discarded.
fn live_recorder() -> obs::Recorder {
    obs::Recorder::builder()
        .jsonl_writer(Box::new(std::io::sink()))
        .build()
}

/// The engine grid the block-sensitive strategies are pinned across.
const THREADS: [usize; 3] = [1, 2, 4];
const BLOCKS: [usize; 4] = [1, 7, 64, 256];

// ---------------------------------------------------------------------------
// Bit-identity across threads, engine block sizes, and recorder state
// ---------------------------------------------------------------------------

#[test]
fn retraining_is_bit_identical_across_threads_and_blocks() {
    let train = corpus(4, 3, 512, 120, 1);
    let test = corpus(4, 3, 512, 40, 2);
    let cfg = RetrainConfig {
        iterations: 8,
        ..RetrainConfig::default()
    };
    let (reference, ref_hist) =
        train_retraining(&train, Some(&test), &cfg, &EpochEngine::default()).unwrap();
    for threads in THREADS {
        for block in BLOCKS {
            let engine = EpochEngine::with_block(threads, block);
            let (model, hist) = train_retraining(&train, Some(&test), &cfg, &engine).unwrap();
            assert_eq!(
                model, reference,
                "retraining diverged at threads={threads} block={block}"
            );
            assert_eq!(strip_timing(&hist), strip_timing(&ref_hist));
        }
    }
}

#[test]
fn enhanced_and_adaptive_are_bit_identical_across_threads() {
    // Both read the block through `similarities_epoch`, so they are pinned
    // across the same (threads, block) grid as retraining.
    let train = corpus(3, 3, 512, 90, 3);
    let test = corpus(3, 3, 512, 30, 4);
    let rcfg = RetrainConfig {
        iterations: 6,
        ..RetrainConfig::default()
    };
    let acfg = AdaptiveConfig {
        iterations: 6,
        ..AdaptiveConfig::default()
    };
    let reference = EpochEngine::default();
    let (e1, eh1) = train_enhanced(&train, Some(&test), &rcfg, &reference).unwrap();
    let (a1, ah1) = train_adaptive(&train, Some(&test), &acfg, &reference).unwrap();
    for threads in THREADS {
        for block in BLOCKS {
            let engine = EpochEngine::with_block(threads, block);
            let (e, eh) = train_enhanced(&train, Some(&test), &rcfg, &engine).unwrap();
            let (a, ah) = train_adaptive(&train, Some(&test), &acfg, &engine).unwrap();
            assert_eq!(e, e1, "enhanced diverged at threads={threads} block={block}");
            assert_eq!(a, a1, "adaptive diverged at threads={threads} block={block}");
            assert_eq!(strip_timing(&eh), strip_timing(&eh1));
            assert_eq!(strip_timing(&ah), strip_timing(&ah1));
        }
    }
}

#[test]
fn multimodel_and_nonbinary_are_bit_identical_across_threads() {
    let train = corpus(3, 2, 512, 90, 5);
    let test = corpus(3, 2, 512, 30, 6);
    let cfg = MultiModelConfig {
        models_per_class: 4,
        iterations: 3,
        ..MultiModelConfig::quick()
    };
    let reference = EpochEngine::default();
    let (mm1, mh1) = train_multimodel(&train, Some(&test), &cfg, &reference).unwrap();
    let (nb1, nh1) = train_nonbinary(&train, Some(&test), 1.0, 4, &reference).unwrap();
    for threads in [2usize, 4] {
        let engine = EpochEngine::new(threads);
        let (mm, mh) = train_multimodel(&train, Some(&test), &cfg, &engine).unwrap();
        let (nb, nh) = train_nonbinary(&train, Some(&test), 1.0, 4, &engine).unwrap();
        assert_eq!(mm, mm1, "multimodel diverged at {threads} threads");
        assert_eq!(nb, nb1, "nonbinary diverged at {threads} threads");
        assert_eq!(strip_timing(&mh), strip_timing(&mh1), "multimodel history diverged");
        assert_eq!(strip_timing(&nh), strip_timing(&nh1), "nonbinary history diverged");
    }
}

/// Trains once on `engine` and once on the same engine recording into a
/// live recorder: the models and the histories without timing must match,
/// and timing must be attached iff the recorder is enabled.
fn assert_recorder_free<M: PartialEq + std::fmt::Debug>(
    name: &str,
    engine: &EpochEngine,
    run: impl Fn(&EpochEngine) -> (M, TrainingHistory),
) {
    let (plain, plain_hist) = run(engine);
    let (recorded, rec_hist) = run(&engine.clone().with_recorder(live_recorder()));
    let at = format!("{name} on {engine:?}");
    assert_eq!(plain, recorded, "{at}");
    assert_eq!(strip_timing(&plain_hist), strip_timing(&rec_hist), "{at}");
    assert!(plain_hist.records().iter().all(|r| r.timing.is_none()), "{at}");
    assert!(rec_hist.records().iter().all(|r| r.timing.is_some()), "{at}");
}

#[test]
fn recorder_never_perturbs_results() {
    let train = corpus(3, 2, 256, 60, 7);
    let test = corpus(3, 2, 256, 21, 8);
    let rcfg = RetrainConfig {
        iterations: 4,
        ..RetrainConfig::default()
    };
    let acfg = AdaptiveConfig {
        iterations: 4,
        ..AdaptiveConfig::default()
    };
    let mcfg = MultiModelConfig {
        models_per_class: 4,
        iterations: 3,
        ..MultiModelConfig::quick()
    };
    assert!(live_recorder().enabled());
    for threads in THREADS {
        for block in BLOCKS {
            let engine = EpochEngine::with_block(threads, block);
            let test = Some(&test);
            assert_recorder_free("retraining", &engine, |e| {
                train_retraining(&train, test, &rcfg, e).unwrap()
            });
            assert_recorder_free("enhanced", &engine, |e| {
                train_enhanced(&train, test, &rcfg, e).unwrap()
            });
            assert_recorder_free("adaptive", &engine, |e| {
                train_adaptive(&train, test, &acfg, e).unwrap()
            });
            assert_recorder_free("multimodel", &engine, |e| {
                train_multimodel(&train, test, &mcfg, e).unwrap()
            });
            assert_recorder_free("nonbinary", &engine, |e| {
                train_nonbinary(&train, test, 1.0, 3, e).unwrap()
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Integer-vote semantics: exact parity with a sequential integer reference,
// trajectory tolerance against the historical per-sample f32 loop
// ---------------------------------------------------------------------------

/// The historical QuantHD loop, parameterized over the update arithmetic:
/// `votes = false` applies one f32 `add_scaled` per misclassified sample (the
/// pre-batching semantics); `votes = true` accumulates integer votes per
/// (class, dim) and applies each total once — a naive sequential version of
/// what [`lehdc::VoteLedger`] computes with bit-sliced planes.
fn sequential_retrain(
    train: &EncodedDataset,
    cfg: &RetrainConfig,
    votes: bool,
) -> (HdcModel, Vec<f64>) {
    let k = train.n_classes();
    let d = train.dim().get();
    let mut nonbinary: Vec<RealHv> = accumulate_class_sums(train, &EpochEngine::default()).unwrap();
    let mut model =
        HdcModel::new(nonbinary.iter().map(RealHv::sign).collect::<Vec<_>>()).unwrap();
    let mut accuracies = Vec::new();
    for iter in 0..cfg.iterations {
        let alpha = if iter == 0 { cfg.first_alpha } else { cfg.alpha };
        let mut vote_grid = vec![0i32; k * d];
        let mut correct = 0usize;
        for i in 0..train.len() {
            let (hv, label) = train.sample(i);
            let predicted = model.classify(hv);
            if predicted == label {
                correct += 1;
                continue;
            }
            if votes {
                for j in 0..d {
                    let bipolar = hv.bipolar(j);
                    vote_grid[label * d + j] += bipolar;
                    vote_grid[predicted * d + j] -= bipolar;
                }
            } else {
                nonbinary[label].add_scaled(hv, alpha);
                nonbinary[predicted].add_scaled(hv, -alpha);
            }
        }
        if votes {
            for (class, hv) in nonbinary.iter_mut().enumerate() {
                for (c, &v) in hv.values_mut().iter_mut().zip(&vote_grid[class * d..]) {
                    if v != 0 {
                        *c += alpha * v as f32;
                    }
                }
            }
        }
        model = HdcModel::new(nonbinary.iter().map(RealHv::sign).collect::<Vec<_>>()).unwrap();
        accuracies.push(correct as f64 / train.len() as f64);
    }
    (model, accuracies)
}

#[test]
fn batched_retraining_matches_sequential_integer_vote_reference_exactly() {
    let train = corpus(4, 3, 384, 100, 8);
    let cfg = RetrainConfig {
        iterations: 6,
        ..RetrainConfig::default()
    };
    let (reference, ref_accs) = sequential_retrain(&train, &cfg, true);
    let (batched, hist) = train_retraining(&train, None, &cfg, &EpochEngine::default()).unwrap();
    assert_eq!(batched, reference, "integer-vote application must be exact");
    assert_eq!(hist.train_series(), ref_accs);
}

#[test]
fn batched_trajectory_tracks_historical_f32_semantics() {
    let train = corpus(4, 3, 512, 160, 9);
    let cfg = RetrainConfig {
        iterations: 12,
        ..RetrainConfig::default()
    };
    let (_, legacy_accs) = sequential_retrain(&train, &cfg, false);
    let (_, hist) = train_retraining(&train, None, &cfg, &EpochEngine::default()).unwrap();
    let new_accs = hist.train_series();
    assert_eq!(new_accs.len(), legacy_accs.len());
    // Identical first iteration (the initial model is shared), and the
    // trajectories must stay within a few percent of each other after —
    // the semantics differ only in per-sample vs per-pass rounding.
    assert_eq!(new_accs[0], legacy_accs[0]);
    for (i, (n, l)) in new_accs.iter().zip(&legacy_accs).enumerate() {
        assert!(
            (n - l).abs() <= 0.05,
            "iteration {i}: batched {n} vs per-sample {l} drifted past 5%"
        );
    }
}

#[test]
fn pooled_class_sums_match_serial_exactly() {
    let train = corpus(5, 2, 512, 150, 10);
    let serial = accumulate_class_sums(&train, &EpochEngine::default()).unwrap();
    for threads in [1usize, 2, 4] {
        let pooled = accumulate_class_sums(&train, &EpochEngine::new(threads)).unwrap();
        assert_eq!(pooled, serial, "pooled sums diverged at {threads} threads");
    }
}

// ---------------------------------------------------------------------------
// Tie-break regression: lowest class index wins, as in model.classify
// ---------------------------------------------------------------------------

/// Classes 0 and 1 binarize to the *same* hypervector `P`, class 2 to `Q`:
/// every `P` sample ties classes 0 and 1 exactly. The fix makes enhanced and
/// adaptive predict class 0 (lowest index) like `model.classify`; the
/// historical scans kept the last extremum and predicted class 1.
fn tied_corpus(dim: Dim) -> EncodedDataset {
    let mut rng = rng_for(77, 0x7E);
    let p = BinaryHv::random(dim, &mut rng);
    let q = BinaryHv::random(dim, &mut rng);
    let mut hvs = vec![p.clone(), p.clone(), p.clone(), p.clone()]; // class 0
    hvs.extend([p.clone(), p.clone()]); // class 1: same prototype
    hvs.extend([q.clone(), q.clone(), q.clone(), q.clone()]); // class 2
    EncodedDataset::from_parts(hvs, vec![0, 0, 0, 0, 1, 1, 2, 2, 2, 2], 3).unwrap()
}

#[test]
fn enhanced_tie_break_prefers_lowest_class_index() {
    let train = tied_corpus(Dim::new(256));
    let cfg = RetrainConfig {
        iterations: 1,
        ..RetrainConfig::default()
    };
    let (_, hist) = train_enhanced(&train, None, &cfg, &EpochEngine::default()).unwrap();
    // Ties resolve to class 0: the four class-0 and four class-2 samples are
    // correct, the two class-1 samples lose their tie → exactly 8/10. The
    // historical last-minimum scan predicted class 1 on ties → 6/10.
    assert_eq!(hist.train_series(), vec![0.8]);
}

#[test]
fn adaptive_tie_break_prefers_lowest_class_index() {
    let train = tied_corpus(Dim::new(256));
    let cfg = AdaptiveConfig {
        iterations: 1,
        ..AdaptiveConfig::default()
    };
    let (_, hist) = train_adaptive(&train, None, &cfg, &EpochEngine::default()).unwrap();
    assert_eq!(hist.train_series(), vec![0.8]);
}

#[test]
fn tie_break_matches_model_classify() {
    // The engine path and model.classify must agree on the tied query.
    let train = tied_corpus(Dim::new(256));
    let model = train_baseline(&train, 0, &EpochEngine::default()).unwrap();
    let p = train.sample(0).0;
    assert_eq!(model.classify(p), 0, "argmax kernels break ties low");
    let engine = EpochEngine::new(2);
    assert_eq!(engine.classify_epoch(&model, &[p.clone()]), vec![0]);
}

// ---------------------------------------------------------------------------
// Pinned goldens: any semantic drift on a fixed corpus fails loudly
// ---------------------------------------------------------------------------

/// A cheap stable fingerprint of a binary model: per-class popcounts plus a
/// word-wise FNV over all planes.
fn fingerprint(model: &HdcModel) -> (Vec<usize>, u64) {
    let pops = model.class_hvs().iter().map(BinaryHv::count_ones).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hv in model.class_hvs() {
        for &w in hv.as_words() {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    (pops, h)
}

#[test]
fn golden_strategy_outputs_on_fixed_corpus() {
    // One generation, held-out tail: test samples share the train prototypes.
    // Many prototypes at a low dimension → the baseline misclassifies, so
    // every strategy leaves its own distinct signature.
    let full = corpus(4, 6, 256, 280, 42);
    let split = |range: std::ops::Range<usize>| {
        EncodedDataset::from_parts(
            full.hvs()[range.clone()].to_vec(),
            full.labels()[range].to_vec(),
            full.n_classes(),
        )
        .unwrap()
    };
    let (train, test) = (split(0..200), split(200..280));
    let rcfg = RetrainConfig {
        iterations: 8,
        ..RetrainConfig::default()
    };
    let acfg = AdaptiveConfig {
        iterations: 8,
        ..AdaptiveConfig::default()
    };

    let engine = EpochEngine::new(4);
    let (re, re_hist) = train_retraining(&train, Some(&test), &rcfg, &engine).unwrap();
    let (en, en_hist) = train_enhanced(&train, Some(&test), &rcfg, &engine).unwrap();
    let (ad, ad_hist) = train_adaptive(&train, Some(&test), &acfg, &engine).unwrap();

    let observed = [
        ("retraining", fingerprint(&re), summary(&re_hist)),
        ("enhanced", fingerprint(&en), summary(&en_hist)),
        ("adaptive", fingerprint(&ad), summary(&ad_hist)),
    ];
    let rendered: Vec<String> = observed
        .iter()
        .map(|(name, (pops, fnv), accs)| {
            format!("{name} pops={pops:?} fnv={fnv:#018x} accs={accs:?}")
        })
        .collect();
    assert_eq!(rendered, GOLDENS, "strategy output drifted from the pinned goldens");
}

fn summary(hist: &TrainingHistory) -> (f64, f64) {
    (
        hist.final_train_accuracy().unwrap(),
        hist.final_test_accuracy().unwrap(),
    )
}

// Pinned on the batched integer-vote semantics (this PR). Re-pin only on a
// deliberate semantic change, and call it out in DESIGN.md §8.
const GOLDENS: [&str; 3] = [
    "retraining pops=[132, 105, 118, 130] fnv=0x8fc83dd0a694d559 accs=(0.995, 0.9125)",
    "enhanced pops=[134, 104, 121, 128] fnv=0xd20aead723b160bd accs=(0.985, 0.925)",
    "adaptive pops=[134, 102, 118, 127] fnv=0x67e765af786b298d accs=(0.99, 0.9375)",
];
