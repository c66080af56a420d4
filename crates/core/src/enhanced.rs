//! The enhanced retraining strategy of the paper's Sec. 3.3 case study.
//!
//! Two modifications over basic retraining, addressing the limitations the
//! paper identifies in Sec. 3.2:
//!
//! 1. **Multiple updates** (limitation ①): on a misclassification, *every*
//!    class hypervector more similar to the sample than the true class is
//!    pushed away — not just the single most-similar wrong class.
//! 2. **Similarity scaling** (limitation ②): each update step is scaled by
//!    the gap between the observed normalized Hamming distance and its
//!    ideal value (0 for the true class, 0.5 for a wrong class), which the
//!    paper notes "is equivalent to Eq. 7 when the loss function is the
//!    squared error".

use crate::encoded::EncodedDataset;
use crate::engine::{retrain_loop, EpochEngine, Update};
use crate::error::LehdcError;
use crate::history::TrainingHistory;
use crate::model::HdcModel;
use crate::retrain::RetrainConfig;

/// Trains with the enhanced retraining strategy (paper Fig. 3, "enhanced")
/// on `engine`.
///
/// Reuses [`RetrainConfig`], convergence stop included; the
/// `alpha`/`first_alpha` rates are multiplied by the per-class similarity
/// gap, so effective steps shrink as training converges — which is what
/// stabilizes the Fig. 3 trajectory.
///
/// The per-sample scaled updates stay sequential (each update depends on
/// its own similarity row), but the dominant cost — the full per-class
/// logit matrix against the frozen model — comes from one batched blocked
/// forward per iteration. The dots are exact integers, so the update
/// arithmetic is bit-identical to the historical per-sample
/// `model.similarities` loop. The predicted class breaks ties toward the
/// **lowest** index, matching `model.classify` and every argmax kernel
/// (the historical `Iterator::min_by` scan kept the *last* minimum).
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] for an invalid configuration or a
/// class with no training samples.
pub fn train_enhanced(
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    config: &RetrainConfig,
    engine: &EpochEngine,
) -> Result<(HdcModel, TrainingHistory), LehdcError> {
    config.validate()?;
    let d = train.dim().get() as f64;
    let k = train.n_classes();
    let mut hamm = vec![0f64; k];
    let mut touched = vec![false; k];
    retrain_loop(
        &config.schedule("enhanced"),
        train,
        test,
        engine,
        |model| engine.similarities_epoch(model, train.hvs()),
        |iter, sims: Vec<i64>, nonbinary| {
            let alpha = config.rate(iter);
            touched.fill(false);
            let mut correct = 0usize;
            for i in 0..train.len() {
                let (hv, label) = train.sample(i);
                // Normalized Hamming distances to every class: h = (D - dot)/2D.
                let row = &sims[i * k..(i + 1) * k];
                for (h, &dot) in hamm.iter_mut().zip(row) {
                    *h = (d - dot as f64) / (2.0 * d);
                }
                let mut predicted = 0usize;
                for c in 1..k {
                    if hamm[c] < hamm[predicted] {
                        predicted = c;
                    }
                }
                if predicted == label {
                    correct += 1;
                    continue;
                }
                // Pull the true class toward the sample, scaled by how far it
                // sits from the ideal distance 0.
                let pull = alpha * hamm[label] as f32;
                nonbinary[label].add_scaled(hv, pull);
                touched[label] = true;
                // Push away EVERY wrong class at least as similar as the true
                // class, scaled by its gap from the ideal distance 0.5.
                for (c, &h) in hamm.iter().enumerate() {
                    if c != label && h <= hamm[label] {
                        let push = alpha * (0.5 - h).max(0.0) as f32;
                        nonbinary[c].add_scaled(hv, -push);
                        touched[c] = true;
                    }
                }
            }
            Update {
                correct,
                touched: (0..k).filter(|&c| touched[c]).collect(),
                learning_rate: alpha,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::multimodal_corpus;
    use crate::retrain::train_retraining;

    #[test]
    fn enhanced_matches_or_beats_basic_on_hard_data() {
        let train = multimodal_corpus(4, 10, 1024, 200, 5);
        let cfg = RetrainConfig::quick();
        let (basic, _) = train_retraining(&train, None, &cfg, &EpochEngine::default()).unwrap();
        let (enhanced, _) = train_enhanced(&train, None, &cfg, &EpochEngine::default()).unwrap();
        let basic_acc = basic.accuracy(train.hvs(), train.labels());
        let enh_acc = enhanced.accuracy(train.hvs(), train.labels());
        assert!(
            enh_acc >= basic_acc - 0.02,
            "enhanced {enh_acc} should not trail basic {basic_acc}"
        );
    }

    #[test]
    fn enhanced_is_more_stable_late_in_training() {
        // The Fig. 3 observation: basic retraining oscillates after initial
        // convergence; enhanced similarity-scaled steps damp that.
        let train = multimodal_corpus(4, 8, 512, 120, 6);
        let cfg = RetrainConfig {
            iterations: 40,
            ..RetrainConfig::default()
        };
        let (_, basic_hist) =
            train_retraining(&train, None, &cfg, &EpochEngine::default()).unwrap();
        let (_, enh_hist) = train_enhanced(&train, None, &cfg, &EpochEngine::default()).unwrap();
        assert!(
            enh_hist.late_oscillation() <= basic_hist.late_oscillation() + 1e-9,
            "enhanced oscillation {} vs basic {}",
            enh_hist.late_oscillation(),
            basic_hist.late_oscillation()
        );
    }

    #[test]
    fn enhanced_is_deterministic_and_logs_history() {
        let train = multimodal_corpus(2, 5, 256, 40, 7);
        let cfg = RetrainConfig {
            iterations: 6,
            ..RetrainConfig::default()
        };
        let (m1, h1) = train_enhanced(&train, Some(&train), &cfg, &EpochEngine::default()).unwrap();
        let (m2, _) = train_enhanced(&train, Some(&train), &cfg, &EpochEngine::default()).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(h1.len(), 6);
        assert!(h1.records().iter().all(|r| r.test_accuracy.is_some()));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let train = multimodal_corpus(2, 3, 128, 10, 8);
        let bad = RetrainConfig {
            iterations: 0,
            ..RetrainConfig::default()
        };
        assert!(train_enhanced(&train, None, &bad, &EpochEngine::default()).is_err());
    }
}
