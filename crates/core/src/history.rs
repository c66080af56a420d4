//! Per-iteration training curves, used by the figure experiments.

/// Wall-clock spans of one training epoch, filled in when the trainer ran
/// with an enabled [`obs::Recorder`].
///
/// All spans are nanoseconds summed over the epoch's batches (except
/// `eval_ns` and `epoch_ns`, which are single spans). `None` on
/// [`EpochRecord::timing`] for uninstrumented runs, so histories stay
/// comparable across runs that differ only in instrumentation — wall-clock
/// never participates in determinism checks unless both runs recorded it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochTiming {
    /// Batch assembly (gather + bit-pack of the epoch's batches).
    pub assembly_ns: u64,
    /// Forward passes (packed XNOR/popcount products + logit scaling).
    pub forward_ns: u64,
    /// Backward passes (softmax CE + packed transpose products).
    pub backward_ns: u64,
    /// Fused optimizer steps (gradient clip + Adam + sign repack).
    pub optimizer_ns: u64,
    /// Batched classification of the training corpus against the frozen
    /// model (comparison-strategy iterations; zero for the LeHDC trainer,
    /// whose forward cost lands in `forward_ns`).
    pub classify_ns: u64,
    /// Misclassification updates — vote accumulation + application for the
    /// retraining strategies, per-sample scaled updates for the others
    /// (zero for the LeHDC trainer).
    pub update_ns: u64,
    /// Re-binarization of the non-binary shadow model at the end of a
    /// retraining iteration (zero for strategies without one).
    pub binarize_ns: u64,
    /// End-of-epoch evaluation (validation + train/test accuracy).
    pub eval_ns: u64,
    /// Whole epoch, wall-clock.
    pub epoch_ns: u64,
    /// Training throughput over the epoch's batch loop (samples per
    /// second, excluding evaluation).
    pub samples_per_sec: f64,
}

/// One iteration/epoch of a training trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Iteration (retraining) or epoch (LeHDC) index, starting at 0.
    pub epoch: usize,
    /// Accuracy on the training split.
    pub train_accuracy: f64,
    /// Accuracy on the test split, when one was supplied to the trainer.
    pub test_accuracy: Option<f64>,
    /// Accuracy on a held-out validation split, when the trainer carved one
    /// off (LeHDC early stopping).
    pub validation_accuracy: Option<f64>,
    /// Mean training loss, for loss-driven trainers (LeHDC).
    pub loss: Option<f64>,
    /// Learning rate in effect during the epoch, when applicable.
    pub learning_rate: Option<f32>,
    /// Wall-clock spans, when the trainer ran with metrics enabled.
    pub timing: Option<EpochTiming>,
}

impl EpochRecord {
    /// This record with its wall-clock timing stripped — what determinism
    /// tests compare, since timing is the one field allowed to differ
    /// between otherwise bit-identical runs.
    #[must_use]
    pub fn without_timing(&self) -> EpochRecord {
        EpochRecord {
            timing: None,
            ..self.clone()
        }
    }
}

/// A training trajectory: what the paper plots in Figs. 3 and 5.
///
/// # Examples
///
/// ```
/// let mut h = lehdc::TrainingHistory::new();
/// h.push(lehdc::EpochRecord {
///     epoch: 0,
///     train_accuracy: 0.8,
///     test_accuracy: Some(0.75),
///     validation_accuracy: None,
///     loss: Some(0.6),
///     learning_rate: Some(0.01),
///     timing: None,
/// });
/// assert_eq!(h.len(), 1);
/// assert_eq!(h.final_train_accuracy(), Some(0.8));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    records: Vec<EpochRecord>,
}

impl TrainingHistory {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        TrainingHistory::default()
    }

    /// Appends one epoch record.
    pub fn push(&mut self, record: EpochRecord) {
        self.records.push(record);
    }

    /// Number of recorded epochs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in epoch order.
    #[must_use]
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The training accuracies as a series.
    #[must_use]
    pub fn train_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.train_accuracy).collect()
    }

    /// The test accuracies as a series (`None` entries skipped).
    #[must_use]
    pub fn test_series(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.test_accuracy).collect()
    }

    /// Final training accuracy, if any epoch was recorded.
    #[must_use]
    pub fn final_train_accuracy(&self) -> Option<f64> {
        self.records.last().map(|r| r.train_accuracy)
    }

    /// Final test accuracy, if recorded.
    #[must_use]
    pub fn final_test_accuracy(&self) -> Option<f64> {
        self.records.last().and_then(|r| r.test_accuracy)
    }

    /// Best (maximum) test accuracy across the trajectory, if recorded.
    #[must_use]
    pub fn best_test_accuracy(&self) -> Option<f64> {
        self.records
            .iter()
            .filter_map(|r| r.test_accuracy)
            .fold(None, |best, v| Some(best.map_or(v, |b: f64| b.max(v))))
    }

    /// Total recorded wall-clock across epochs with timing, in nanoseconds
    /// (`None` when no epoch carried timing).
    #[must_use]
    pub fn total_epoch_ns(&self) -> Option<u64> {
        let spans: Vec<u64> = self
            .records
            .iter()
            .filter_map(|r| r.timing.as_ref().map(|t| t.epoch_ns))
            .collect();
        if spans.is_empty() {
            None
        } else {
            Some(spans.iter().sum())
        }
    }

    /// Mean training throughput over epochs with timing, in samples per
    /// second (`None` when no epoch carried timing).
    #[must_use]
    pub fn mean_samples_per_sec(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.timing.as_ref().map(|t| t.samples_per_sec))
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum::<f64>() / rates.len() as f64)
        }
    }

    /// A crude oscillation measure: mean absolute epoch-to-epoch change in
    /// training accuracy over the last half of the trajectory. The paper's
    /// Fig. 3 observes that basic retraining oscillates after convergence
    /// while enhanced retraining is stable — this quantifies that.
    #[must_use]
    pub fn late_oscillation(&self) -> f64 {
        let n = self.records.len();
        if n < 4 {
            return 0.0;
        }
        let tail = &self.records[n / 2..];
        let deltas: Vec<f64> = tail
            .windows(2)
            .map(|w| (w[1].train_accuracy - w[0].train_accuracy).abs())
            .collect();
        deltas.iter().sum::<f64>() / deltas.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: usize, train: f64, test: Option<f64>) -> EpochRecord {
        EpochRecord {
            epoch,
            train_accuracy: train,
            test_accuracy: test,
            validation_accuracy: None,
            loss: None,
            learning_rate: None,
            timing: None,
        }
    }

    #[test]
    fn empty_history_behaves() {
        let h = TrainingHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.final_train_accuracy(), None);
        assert_eq!(h.best_test_accuracy(), None);
        assert_eq!(h.late_oscillation(), 0.0);
    }

    #[test]
    fn series_and_finals() {
        let mut h = TrainingHistory::new();
        h.push(record(0, 0.5, Some(0.4)));
        h.push(record(1, 0.7, None));
        h.push(record(2, 0.9, Some(0.8)));
        assert_eq!(h.train_series(), vec![0.5, 0.7, 0.9]);
        assert_eq!(h.test_series(), vec![0.4, 0.8]);
        assert_eq!(h.final_train_accuracy(), Some(0.9));
        assert_eq!(h.final_test_accuracy(), Some(0.8));
        assert_eq!(h.best_test_accuracy(), Some(0.8));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn timing_aggregates_skip_untimed_epochs() {
        let mut h = TrainingHistory::new();
        h.push(record(0, 0.5, None));
        assert_eq!(h.total_epoch_ns(), None);
        assert_eq!(h.mean_samples_per_sec(), None);
        let mut timed = record(1, 0.6, None);
        timed.timing = Some(EpochTiming {
            epoch_ns: 1_000,
            samples_per_sec: 200.0,
            ..EpochTiming::default()
        });
        let stripped = timed.without_timing();
        assert_eq!(stripped.timing, None);
        assert_eq!(stripped.epoch, 1);
        h.push(timed);
        let mut timed2 = record(2, 0.7, None);
        timed2.timing = Some(EpochTiming {
            epoch_ns: 3_000,
            samples_per_sec: 400.0,
            ..EpochTiming::default()
        });
        h.push(timed2);
        assert_eq!(h.total_epoch_ns(), Some(4_000));
        assert_eq!(h.mean_samples_per_sec(), Some(300.0));
    }

    #[test]
    fn oscillation_detects_instability() {
        let mut stable = TrainingHistory::new();
        let mut wobbly = TrainingHistory::new();
        for i in 0..20 {
            stable.push(record(i, 0.9, None));
            let acc = if i % 2 == 0 { 0.85 } else { 0.95 };
            wobbly.push(record(i, acc, None));
        }
        assert!(wobbly.late_oscillation() > stable.late_oscillation());
        assert!(wobbly.late_oscillation() > 0.05);
    }
}
