//! Non-binary HDC (paper Sec. 3.1 remark): real-valued class hypervectors
//! with cosine-similarity inference.
//!
//! The paper notes that a non-binary HDC classifier is equivalent to a
//! single-layer perceptron. This module provides the non-binary baseline
//! (raw class sums, no binarization) and a perceptron-style fine-tuning pass
//! over the real class hypervectors, as the richer-information reference
//! point for the binary strategies.

use binnet::{softmax_cross_entropy, Adam, BatchSampler, DenseLinear, Dropout, Optimizer, PlateauDecay};
use hdc::RealHv;

use crate::baseline::accumulate_class_sums;
use crate::encoded::EncodedDataset;
use crate::engine::{EpochEngine, StrategyEpoch};
use crate::error::LehdcError;
use crate::history::{EpochRecord, TrainingHistory};
use crate::lehdc_trainer::LehdcConfig;
use crate::model::NonBinaryModel;

/// Trains the non-binary baseline: class hypervectors are the raw bipolar
/// sums (Eq. 2 without the `sgn`), classified by cosine similarity.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] if a class has no samples.
///
/// # Examples
///
/// ```
/// use hdc::{Dim, RecordEncoder};
/// use hdc_datasets::BenchmarkProfile;
/// use lehdc::{nonbinary::train_nonbinary_baseline, EncodedDataset, EpochEngine};
///
/// # fn main() -> Result<(), lehdc::LehdcError> {
/// let data = BenchmarkProfile::pamap().quick().generate(2)?;
/// let enc = RecordEncoder::builder(Dim::new(512), data.train.n_features())
///     .seed(1)
///     .build()?;
/// let train = EncodedDataset::encode(&data.train, &enc, &EpochEngine::new(2))?;
/// let model = train_nonbinary_baseline(&train)?;
/// assert_eq!(model.n_classes(), 5);
/// # Ok(())
/// # }
/// ```
pub fn train_nonbinary_baseline(train: &EncodedDataset) -> Result<NonBinaryModel, LehdcError> {
    NonBinaryModel::new(accumulate_class_sums(train, &EpochEngine::default())?)
}

/// Fine-tunes a non-binary model with perceptron-style updates on
/// `engine`: each misclassified sample is added to its true class
/// hypervector and subtracted from the predicted one (no binarization
/// anywhere).
///
/// The class-sum initialization and the accuracy evaluations fan out over
/// the engine's pool; the training pass itself stays sequential, because
/// the perceptron updates mutate the class hypervectors mid-pass, so each
/// sample's cosine scan depends on the updates before it. Models and
/// histories are bit-identical at any thread count. Per-iteration
/// classify/update/eval spans flow into the engine's recorder when it is
/// enabled.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] if `iterations == 0`, `alpha` is
/// non-positive, or a class has no samples.
pub fn train_nonbinary(
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    alpha: f32,
    iterations: usize,
    engine: &EpochEngine,
) -> Result<(NonBinaryModel, TrainingHistory), LehdcError> {
    if iterations == 0 {
        return Err(LehdcError::InvalidConfig(
            "non-binary training needs at least one iteration".into(),
        ));
    }
    if !alpha.is_finite() || alpha <= 0.0 {
        return Err(LehdcError::InvalidConfig(format!(
            "alpha must be positive, got {alpha}"
        )));
    }
    let mut class_hvs = accumulate_class_sums(train, engine)?;
    let mut history = TrainingHistory::new();
    let rec = engine.recorder();

    for iter in 0..iterations {
        let epoch_timer = rec.start();
        let mut classify_ns = 0u64;
        let mut update_ns = 0u64;
        let mut correct = 0usize;
        for i in 0..train.len() {
            let (hv, label) = train.sample(i);
            // classify by cosine against the current real class hvs
            let t = rec.start();
            let mut best = (f64::NEG_INFINITY, 0usize);
            for (k, c) in class_hvs.iter().enumerate() {
                let cos = c.cosine_binary(hv);
                if cos > best.0 {
                    best = (cos, k);
                }
            }
            classify_ns += t.elapsed_ns();
            if best.1 == label {
                correct += 1;
            } else {
                let t = rec.start();
                class_hvs[label].add_scaled(hv, alpha);
                class_hvs[best.1].add_scaled(hv, -alpha);
                update_ns += t.elapsed_ns();
            }
        }
        let model = NonBinaryModel::new(class_hvs.clone())?;
        let t = rec.start();
        let test_accuracy = test.map(|ts| engine.accuracy(&model, ts.hvs(), ts.labels()));
        let eval_ns = t.elapsed_ns();
        engine.close_iteration(
            &mut history,
            &StrategyEpoch {
                strategy: "nonbinary",
                epoch: iter,
                samples: train.len(),
                train_accuracy: correct as f64 / train.len() as f64,
                test_accuracy,
                learning_rate: alpha,
                classify_ns,
                update_ns,
                eval_ns,
                epoch_ns: epoch_timer.elapsed_ns(),
                ..StrategyEpoch::default()
            },
        );
    }
    Ok((NonBinaryModel::new(class_hvs)?, history))
}

/// **Non-binary LeHDC** (paper footnote 1: "our result also applies to
/// non-binary HDC models by changing the BNN to a wide single-layer neural
/// network with non-binary weights"): the same gradient recipe as
/// [`train_lehdc`](crate::lehdc_trainer::train_lehdc) — softmax
/// cross-entropy, Adam, L2 weight decay, input dropout, plateau LR decay —
/// applied to a **dense** single layer whose columns become real class
/// hypervectors with cosine inference.
///
/// Reuses [`LehdcConfig`]; `warm_start`, `eval_every`, and `early_stopping`
/// behave as for the binary trainer except early stopping is not supported
/// here (the field is ignored).
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] for an invalid configuration, or a
/// class with no samples when `warm_start` is enabled.
pub fn train_lehdc_nonbinary(
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    config: &LehdcConfig,
) -> Result<(NonBinaryModel, TrainingHistory), LehdcError> {
    config.validate()?;
    let d = train.dim().get();
    let k = train.n_classes();

    let mut layer = if config.warm_start {
        let sums = accumulate_class_sums(train, &EpochEngine::default())?;
        let scale = 1.0 / (train.len() as f32 / k as f32).max(1.0);
        DenseLinear::with_init(d, k, |r, c| sums[c].values()[r] * scale)
    } else {
        DenseLinear::new(d, k, hdc::rng::derive_seed(config.seed, 0x1418))
    };

    let mut opt = Adam::new(config.learning_rate).weight_decay(config.weight_decay);
    let mut dropout = Dropout::new(config.dropout, hdc::rng::derive_seed(config.seed, 0xD41))?;
    let mut sched = PlateauDecay::new(config.lr_decay, 1e-6)?;
    let sampler = BatchSampler::new(
        train.len(),
        config.batch_size.min(train.len()),
        hdc::rng::derive_seed(config.seed, 0xBA7D),
    )?;
    let mut history = TrainingHistory::new();

    for epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for batch_indices in sampler.epoch(epoch) {
            let (mut x, labels) = train.batch(&batch_indices);
            dropout.apply(&mut x);
            let logits = layer.forward(&x);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &labels)?;
            let grad = layer.backward(&x, &dlogits);
            layer.apply_gradient(&grad, &mut opt);
            epoch_loss += loss;
            batches += 1;
        }
        let mean_loss = epoch_loss / batches.max(1) as f64;
        let lr = sched.observe(mean_loss, opt.learning_rate());
        opt.set_learning_rate(lr);

        if epoch % config.eval_every == 0 || epoch + 1 == config.epochs {
            let model = model_from_dense(&layer, k)?;
            history.push(EpochRecord {
                epoch,
                train_accuracy: model.accuracy(train.hvs(), train.labels()),
                test_accuracy: test.map(|t| model.accuracy(t.hvs(), t.labels())),
                validation_accuracy: None,
                loss: Some(mean_loss),
                learning_rate: Some(lr),
                timing: None,
            });
        }
    }

    Ok((model_from_dense(&layer, k)?, history))
}

fn model_from_dense(layer: &DenseLinear, k: usize) -> Result<NonBinaryModel, LehdcError> {
    NonBinaryModel::new((0..k).map(|c| RealHv::from_values(layer.column(c))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::train_baseline;
    use crate::test_util::multimodal_corpus;

    #[test]
    fn nonbinary_baseline_matches_binary_baseline_in_the_easy_case() {
        // Where the binary baseline is already perfect, the non-binary one
        // (richer information) must also be perfect.
        let train = multimodal_corpus(3, 10, 1024, 50, 41);
        let binary = train_baseline(&train, 0, &EpochEngine::default()).unwrap();
        let nonbinary = train_nonbinary_baseline(&train).unwrap();
        let bin_acc = binary.accuracy(train.hvs(), train.labels());
        let nb_acc = nonbinary.accuracy(train.hvs(), train.labels());
        assert!(
            nb_acc >= bin_acc - 0.02,
            "non-binary {nb_acc} should not trail binary {bin_acc}"
        );
    }

    #[test]
    fn fine_tuning_improves_hard_data() {
        let train = multimodal_corpus(4, 10, 512, 120, 42);
        let baseline = train_nonbinary_baseline(&train).unwrap();
        let (tuned, history) =
            train_nonbinary(&train, None, 1.0, 15, &EpochEngine::default()).unwrap();
        let before = baseline.accuracy(train.hvs(), train.labels());
        let after = tuned.accuracy(train.hvs(), train.labels());
        assert!(after >= before, "tuning {after} should not hurt {before}");
        assert_eq!(history.len(), 15);
    }

    #[test]
    fn validation_rejects_bad_params() {
        let train = multimodal_corpus(2, 3, 128, 10, 43);
        assert!(train_nonbinary(&train, None, 0.0, 5, &EpochEngine::default()).is_err());
        assert!(train_nonbinary(&train, None, 1.0, 0, &EpochEngine::default()).is_err());
        assert!(train_nonbinary(&train, None, f32::NAN, 5, &EpochEngine::default()).is_err());
    }

    #[test]
    fn nonbinary_lehdc_matches_or_beats_binary_lehdc() {
        // Footnote 1: the dense single layer has strictly more capacity
        // than the binary one, so it should not trail on held-out data.
        let (train, test) = crate::test_util::hard_encoded_pair(45);
        let cfg = LehdcConfig::quick().with_epochs(15);
        let (binary, _) =
            crate::lehdc_trainer::train_lehdc(&train, None, &cfg, &obs::Recorder::disabled())
                .unwrap();
        let (dense, history) = train_lehdc_nonbinary(&train, None, &cfg).unwrap();
        let bin_acc = binary.accuracy(test.hvs(), test.labels());
        let dense_acc = dense.accuracy(test.hvs(), test.labels());
        assert!(
            dense_acc >= bin_acc - 0.03,
            "non-binary LeHDC {dense_acc} should not trail binary LeHDC {bin_acc}"
        );
        assert_eq!(history.len(), 15);
        assert!(history.records().iter().all(|r| r.loss.is_some()));
    }

    #[test]
    fn nonbinary_lehdc_cold_start_trains() {
        let train = multimodal_corpus(2, 8, 256, 30, 46);
        let cfg = LehdcConfig {
            warm_start: false,
            epochs: 20,
            batch_size: 8,
            dropout: 0.1,
            weight_decay: 0.001,
            learning_rate: 0.05,
            ..LehdcConfig::default()
        };
        let (model, _) = train_lehdc_nonbinary(&train, None, &cfg).unwrap();
        assert!(model.accuracy(train.hvs(), train.labels()) > 0.7);
    }

    #[test]
    fn binarized_nonbinary_equals_baseline_binary_model_signs() {
        let train = multimodal_corpus(2, 5, 256, 20, 44); // odd per-class → no ties
        let nb = train_nonbinary_baseline(&train).unwrap();
        let bin = nb.to_binary().unwrap();
        let direct = train_baseline(&train, 0, &EpochEngine::default()).unwrap();
        // Per-class counts are 2*5=10 (even) so ties are possible; compare
        // only where the sums are non-zero by checking high agreement.
        let mut agree = 0usize;
        let d = bin.dim().get();
        for k in 0..2 {
            agree += d - bin.class_hvs()[k].hamming(&direct.class_hvs()[k]);
        }
        // With 10 samples per class (even) drawn from two independent
        // clusters, roughly 1/8 of dimensions sum to exactly zero and are
        // tie-broken differently by the two paths; the rest must agree.
        assert!(
            agree as f64 / (2.0 * d as f64) > 0.80,
            "sign of sums should agree with baseline thresholding away from ties"
        );
    }
}
