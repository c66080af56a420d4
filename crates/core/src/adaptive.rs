//! AdaptHD-style adaptive-learning-rate retraining (paper Sec. 3.2
//! discussion, ref \[6\]).
//!
//! The paper notes that AdaptHD makes the retraining rate adaptive, "but
//! the adaptability is still determined on the validation error rate or the
//! difference between the similarities of `cosine(En(x), c_correct)` and
//! `cosine(En(x), c_wrong)`". This module implements both mechanisms:
//!
//! - **data-dependent**: each misclassified sample's update is scaled by
//!   the similarity gap `cos(wrong) − cos(correct)` (a larger margin
//!   violation gets a larger step);
//! - **iteration-dependent**: the base rate is additionally scaled by the
//!   previous iteration's training error rate, so steps shrink as the model
//!   converges.

use crate::encoded::EncodedDataset;
use crate::engine::{retrain_loop, EpochEngine, Schedule, Update};
use crate::error::LehdcError;
use crate::history::TrainingHistory;
use crate::model::HdcModel;

/// Configuration of adaptive retraining.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Maximum learning rate (scaled down by the adaptive factors).
    pub max_alpha: f32,
    /// Number of full passes over the training set.
    pub iterations: usize,
    /// Enables the per-sample similarity-gap scaling.
    pub data_dependent: bool,
    /// Enables the per-iteration error-rate scaling.
    pub iteration_dependent: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            max_alpha: 1.0,
            iterations: 50,
            data_dependent: true,
            iteration_dependent: true,
        }
    }
}

impl AdaptiveConfig {
    /// A laptop-scale preset (20 iterations).
    #[must_use]
    pub fn quick() -> Self {
        AdaptiveConfig {
            iterations: 20,
            ..AdaptiveConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if `iterations == 0` or
    /// `max_alpha` is non-positive/non-finite.
    pub fn validate(&self) -> Result<(), LehdcError> {
        if self.iterations == 0 {
            return Err(LehdcError::InvalidConfig(
                "adaptive retraining needs at least one iteration".into(),
            ));
        }
        if !self.max_alpha.is_finite() || self.max_alpha <= 0.0 {
            return Err(LehdcError::InvalidConfig(format!(
                "max_alpha must be positive and finite, got {}",
                self.max_alpha
            )));
        }
        Ok(())
    }
}

/// Trains with adaptive-rate retraining on `engine`.
///
/// The per-sample gap-scaled updates stay sequential, but each iteration's
/// similarity matrix against the frozen model comes from one batched
/// blocked forward (exact integer dots — identical update arithmetic to
/// the per-sample loop). The predicted class breaks ties toward the
/// **lowest** index, matching `model.classify` and every argmax kernel
/// (the historical `Iterator::max_by_key` scan kept the *last* maximum).
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] for an invalid configuration or a
/// class with no training samples.
pub fn train_adaptive(
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    config: &AdaptiveConfig,
    engine: &EpochEngine,
) -> Result<(HdcModel, TrainingHistory), LehdcError> {
    config.validate()?;
    let d = train.dim().get() as f64;
    let k = train.n_classes();
    let mut touched = vec![false; k];
    let mut prev_error = 1.0f64; // start at the maximum rate
    let schedule = Schedule {
        strategy: "adaptive",
        iterations: config.iterations,
        convergence_threshold: None,
    };
    retrain_loop(
        &schedule,
        train,
        test,
        engine,
        |model| engine.similarities_epoch(model, train.hvs()),
        |_, sims: Vec<i64>, nonbinary| {
            let iter_scale = if config.iteration_dependent {
                prev_error.max(0.02) as f32
            } else {
                1.0
            };
            touched.fill(false);
            let mut correct = 0usize;
            for i in 0..train.len() {
                let (hv, label) = train.sample(i);
                let row = &sims[i * k..(i + 1) * k];
                let mut predicted = 0usize;
                for c in 1..k {
                    if row[c] > row[predicted] {
                        predicted = c;
                    }
                }
                if predicted == label {
                    correct += 1;
                    continue;
                }
                // cosine = dot / D; gap ∈ (0, 2]
                let gap = ((row[predicted] - row[label]) as f64 / d) as f32;
                let data_scale = if config.data_dependent { gap / 2.0 } else { 1.0 };
                let alpha = config.max_alpha * iter_scale * data_scale;
                nonbinary[label].add_scaled(hv, alpha);
                nonbinary[predicted].add_scaled(hv, -alpha);
                touched[label] = true;
                touched[predicted] = true;
            }
            prev_error = 1.0 - correct as f64 / train.len() as f64;
            Update {
                correct,
                touched: (0..k).filter(|&c| touched[c]).collect(),
                learning_rate: config.max_alpha * iter_scale,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::train_baseline;
    use crate::test_util::multimodal_corpus;

    #[test]
    fn config_validation() {
        assert!(AdaptiveConfig::default().validate().is_ok());
        assert!(AdaptiveConfig {
            iterations: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AdaptiveConfig {
            max_alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn adaptive_beats_baseline_on_hard_data() {
        let (train, test) = crate::test_util::hard_encoded_pair(11);
        let baseline = train_baseline(&train, 0, &EpochEngine::default()).unwrap();
        let cfg = AdaptiveConfig {
            max_alpha: 5.0,
            iterations: 30,
            ..AdaptiveConfig::default()
        };
        let (adapted, history) =
            train_adaptive(&train, None, &cfg, &EpochEngine::default()).unwrap();
        let base_acc = baseline.accuracy(test.hvs(), test.labels());
        let ad_acc = adapted.accuracy(test.hvs(), test.labels());
        assert!(ad_acc > base_acc, "adaptive {ad_acc} vs baseline {base_acc}");
        assert_eq!(history.len(), 30);
    }

    #[test]
    fn learning_rate_shrinks_as_error_falls() {
        let train = multimodal_corpus(3, 8, 512, 60, 12);
        let cfg = AdaptiveConfig::quick();
        let (_, history) = train_adaptive(&train, None, &cfg, &EpochEngine::default()).unwrap();
        let rates: Vec<f32> = history
            .records()
            .iter()
            .map(|r| r.learning_rate.unwrap())
            .collect();
        let first = rates.first().copied().unwrap();
        let last = rates.last().copied().unwrap();
        assert!(
            last < first,
            "iteration-dependent rate should shrink: {first} → {last}"
        );
    }

    #[test]
    fn ablated_variants_still_train() {
        let train = multimodal_corpus(2, 6, 256, 30, 13);
        for (dd, id) in [(false, false), (true, false), (false, true)] {
            let cfg = AdaptiveConfig {
                iterations: 5,
                data_dependent: dd,
                iteration_dependent: id,
                max_alpha: 0.5,
            };
            let (model, _) = train_adaptive(&train, None, &cfg, &EpochEngine::default()).unwrap();
            assert_eq!(model.n_classes(), 2);
        }
    }
}
