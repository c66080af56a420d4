//! The QuantHD retraining strategy (paper Sec. 2.2, Eq. 3, ref \[4\]).

use crate::encoded::EncodedDataset;
use crate::engine::{retrain_loop, EpochEngine, Schedule, Update, VoteLedger};
use crate::error::LehdcError;
use crate::history::TrainingHistory;
use crate::model::HdcModel;

/// Configuration of the retraining strategy.
///
/// The defaults are the paper's evaluation settings: `α = 0.05`, `α = 1.5`
/// in the first iteration, 150 iterations.
///
/// # Examples
///
/// ```
/// let cfg = lehdc::RetrainConfig::default();
/// assert_eq!(cfg.alpha, 0.05);
/// assert_eq!(cfg.first_alpha, 1.5);
/// assert_eq!(cfg.iterations, 150);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainConfig {
    /// Learning rate `α` of Eq. 3.
    pub alpha: f32,
    /// Learning rate used in the first iteration only.
    pub first_alpha: f32,
    /// Maximum number of full passes over the training set.
    pub iterations: usize,
    /// Optional convergence stop — the paper's Sec. 2.2: "the retraining
    /// stops when the updating on class hypervectors is negligible".
    /// Training ends early once the fraction of binary class-hypervector
    /// bits that flipped in an iteration falls below this threshold.
    pub convergence_threshold: Option<f64>,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            alpha: 0.05,
            first_alpha: 1.5,
            iterations: 150,
            convergence_threshold: None,
        }
    }
}

impl RetrainConfig {
    /// A laptop-scale preset (30 iterations) for tests and quick runs.
    #[must_use]
    pub fn quick() -> Self {
        RetrainConfig {
            iterations: 30,
            ..RetrainConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if `iterations == 0` or either
    /// rate is non-positive or non-finite.
    pub fn validate(&self) -> Result<(), LehdcError> {
        if self.iterations == 0 {
            return Err(LehdcError::InvalidConfig(
                "retraining needs at least one iteration".into(),
            ));
        }
        for (name, v) in [("alpha", self.alpha), ("first_alpha", self.first_alpha)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(LehdcError::InvalidConfig(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        if let Some(t) = self.convergence_threshold {
            if !t.is_finite() || !(0.0..1.0).contains(&t) {
                return Err(LehdcError::InvalidConfig(format!(
                    "convergence threshold must be in [0, 1), got {t}"
                )));
            }
        }
        Ok(())
    }
}

impl RetrainConfig {
    /// The learning rate of iteration `iter`: `first_alpha`, then `alpha`.
    pub(crate) fn rate(&self, iter: usize) -> f32 {
        if iter == 0 {
            self.first_alpha
        } else {
            self.alpha
        }
    }

    /// The loop schedule of a run named `strategy` under this config.
    pub(crate) fn schedule(&self, strategy: &'static str) -> Schedule {
        Schedule {
            strategy,
            iterations: self.iterations,
            convergence_threshold: self.convergence_threshold,
        }
    }
}

/// Trains a binary HDC model with QuantHD-style retraining on `engine`.
///
/// Starting from the baseline bundling (non-binary class sums), each
/// iteration classifies every training sample with the current **binary**
/// model; on a misclassification the **non-binary** class hypervectors are
/// updated (Eq. 3):
///
/// ```text
/// c⁺_nb ← c⁺_nb + α·En(x)    (true class)
/// c⁻_nb ← c⁻_nb − α·En(x)    (predicted, wrong class)
/// ```
///
/// and the binary model is refreshed from the signs after the pass. When
/// `test` is given, test accuracy is logged per iteration (paper Fig. 3).
/// Per-iteration classify/update/binarize/eval spans flow into the
/// engine's recorder (and into [`EpochRecord::timing`](crate::EpochRecord))
/// when it is enabled.
///
/// # Batched semantics
///
/// The binary model is frozen within an iteration, so the whole pass's
/// predictions come from one blocked, thread-chunked classification, and the
/// pass's update to class `k` is the exact integer vote total of its
/// misclassified samples applied once: `c_nb ← c_nb + α·votes` (see
/// [`VoteLedger`]). This is the **reference semantics** of retraining — it
/// rounds each dimension once per iteration instead of once per misclassified
/// sample, so it is not bit-identical to the historical sequential
/// `add_scaled` loop, but it is invariant to sample order, thread count,
/// kernel tier, and query-block size, and its accuracy trajectories match
/// the sequential path within noise (pinned by the strategy determinism
/// suite).
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] for an invalid configuration or a
/// class with no training samples.
pub fn train_retraining(
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    config: &RetrainConfig,
    engine: &EpochEngine,
) -> Result<(HdcModel, TrainingHistory), LehdcError> {
    config.validate()?;
    let mut ledger = VoteLedger::new(train.n_classes(), train.dim());
    retrain_loop(
        &config.schedule("retraining"),
        train,
        test,
        engine,
        |model| engine.classify_epoch(model, train.hvs()),
        |iter, predictions: Vec<usize>, nonbinary| {
            let alpha = config.rate(iter);
            ledger.clear();
            let mut correct = 0usize;
            for (i, &predicted) in predictions.iter().enumerate() {
                let (hv, label) = train.sample(i);
                if predicted == label {
                    correct += 1;
                } else {
                    ledger.record(hv, label, predicted);
                }
            }
            ledger.apply(nonbinary, alpha, engine.pool());
            Update {
                correct,
                touched: ledger.touched_classes(),
                learning_rate: alpha,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::train_baseline;
    use crate::test_util::multimodal_corpus;
    use hdc::rng::rng_for;
    use hdc::{BinaryHv, Dim};

    #[test]
    fn config_validation() {
        assert!(RetrainConfig::default().validate().is_ok());
        assert!(RetrainConfig {
            iterations: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetrainConfig {
            alpha: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetrainConfig {
            first_alpha: f32::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn retraining_improves_on_baseline_for_hard_data() {
        let (train, test) = crate::test_util::hard_encoded_pair(1);
        let baseline = train_baseline(&train, 0, &EpochEngine::default()).unwrap();
        let (retrained, history) =
            train_retraining(&train, None, &RetrainConfig::quick(), &EpochEngine::default())
                .unwrap();
        let base_acc = baseline.accuracy(test.hvs(), test.labels());
        let re_acc = retrained.accuracy(test.hvs(), test.labels());
        assert!(
            re_acc > base_acc,
            "retraining {re_acc} must beat baseline {base_acc}"
        );
        assert_eq!(history.len(), 30);
    }

    #[test]
    fn history_logs_test_accuracy_when_given() {
        let train = multimodal_corpus(2, 6, 256, 30, 2);
        let test = multimodal_corpus(2, 3, 256, 30, 2);
        let cfg = RetrainConfig {
            iterations: 5,
            ..RetrainConfig::default()
        };
        let (_, history) =
            train_retraining(&train, Some(&test), &cfg, &EpochEngine::default()).unwrap();
        assert_eq!(history.len(), 5);
        assert!(history.records().iter().all(|r| r.test_accuracy.is_some()));
        assert_eq!(history.records()[0].learning_rate, Some(1.5));
        assert_eq!(history.records()[1].learning_rate, Some(0.05));
    }

    #[test]
    fn convergence_threshold_stops_early() {
        let (train, _) = crate::test_util::hard_encoded_pair(38);
        let converge = RetrainConfig {
            iterations: 40,
            convergence_threshold: Some(0.002),
            ..RetrainConfig::default()
        };
        let (_, history) =
            train_retraining(&train, None, &converge, &EpochEngine::default()).unwrap();
        assert!(
            history.len() < 40,
            "should stop before the budget, ran {} iterations",
            history.len()
        );
        // invalid threshold is rejected
        let bad = RetrainConfig {
            convergence_threshold: Some(1.5),
            ..RetrainConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn retraining_is_deterministic() {
        let train = multimodal_corpus(3, 5, 256, 40, 3);
        let cfg = RetrainConfig::quick();
        let (m1, _) = train_retraining(&train, None, &cfg, &EpochEngine::default()).unwrap();
        let (m2, _) = train_retraining(&train, None, &cfg, &EpochEngine::default()).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn already_separable_data_stays_stable() {
        // If the baseline classifies everything correctly, retraining never
        // updates and returns the baseline model (modulo sgn(0) handling).
        let mut rng = rng_for(4, 4);
        let dim = Dim::new(512);
        let a = BinaryHv::random(dim, &mut rng);
        let b = BinaryHv::random(dim, &mut rng);
        let train = EncodedDataset::from_parts(
            vec![a.clone(), a.clone(), a.clone(), b.clone(), b.clone(), b.clone()],
            vec![0, 0, 0, 1, 1, 1],
            2,
        )
        .unwrap();
        let cfg = RetrainConfig {
            iterations: 3,
            ..RetrainConfig::default()
        };
        let (model, history) =
            train_retraining(&train, None, &cfg, &EpochEngine::default()).unwrap();
        assert_eq!(model.class_hvs()[0], a);
        assert_eq!(model.class_hvs()[1], b);
        assert!(history
            .records()
            .iter()
            .all(|r| (r.train_accuracy - 1.0).abs() < 1e-12));
    }
}
