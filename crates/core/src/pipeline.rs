//! End-to-end pipeline: dataset → normalize → encode → train → evaluate.

use hdc::{Dim, RecordEncoder};
use hdc_datasets::{MinMaxNormalizer, TrainTest};

use crate::adaptive::{train_adaptive, AdaptiveConfig};
use crate::baseline::train_baseline;
use crate::encoded::EncodedDataset;
use crate::engine::{Classifier, EpochEngine};
use crate::enhanced::train_enhanced;
use crate::error::LehdcError;
use crate::history::TrainingHistory;
use crate::lehdc_trainer::{train_lehdc, LehdcConfig};
use crate::model::HdcModel;
use crate::multimodel::{train_multimodel, MultiModelConfig};
use crate::nonbinary::train_nonbinary;
use crate::retrain::{train_retraining, RetrainConfig};

/// An HDC training strategy, as compared in the paper's Table 1 and
/// Figures 3/5/6.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// Baseline binary HDC: bundle-and-sign (Eq. 2).
    Baseline,
    /// Multi-model HDC (SearcHD, ref \[8\]).
    MultiModel(MultiModelConfig),
    /// Retraining (QuantHD, ref \[4\], Eq. 3).
    Retraining(RetrainConfig),
    /// Enhanced retraining (Sec. 3.3 case study).
    Enhanced(RetrainConfig),
    /// Adaptive-rate retraining (AdaptHD, ref \[6\]).
    Adaptive(AdaptiveConfig),
    /// LeHDC: equivalent-BNN training (Sec. 4). It trains on
    /// [`LehdcConfig::threads`] workers, not the pipeline's thread count;
    /// only its recorder and the outcome evaluation come from the pipeline.
    Lehdc(LehdcConfig),
    /// Non-binary HDC with perceptron fine-tuning (Sec. 3.1 remark).
    NonBinary {
        /// Perceptron learning rate.
        alpha: f32,
        /// Full passes over the training set.
        iterations: usize,
    },
}

impl Strategy {
    /// The strategy's display name, matching the paper's tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Baseline => "Baseline",
            Strategy::MultiModel(_) => "Multi-Model",
            Strategy::Retraining(_) => "Retraining",
            Strategy::Enhanced(_) => "Enhanced",
            Strategy::Adaptive(_) => "Adaptive",
            Strategy::Lehdc(_) => "LeHDC",
            Strategy::NonBinary { .. } => "Non-Binary",
        }
    }

    /// LeHDC with the laptop-scale quick preset.
    #[must_use]
    pub fn lehdc_quick() -> Self {
        Strategy::Lehdc(LehdcConfig::quick())
    }

    /// Retraining with the quick preset (30 iterations).
    #[must_use]
    pub fn retraining_quick() -> Self {
        Strategy::Retraining(RetrainConfig::quick())
    }

    /// Enhanced retraining with the quick preset.
    #[must_use]
    pub fn enhanced_quick() -> Self {
        Strategy::Enhanced(RetrainConfig::quick())
    }

    /// Multi-model with the quick preset (16 models/class).
    #[must_use]
    pub fn multimodel_quick() -> Self {
        Strategy::MultiModel(MultiModelConfig::quick())
    }

    /// Adaptive retraining with the quick preset.
    #[must_use]
    pub fn adaptive_quick() -> Self {
        Strategy::Adaptive(AdaptiveConfig::quick())
    }

    /// The four Table 1 strategies at quick scale, in table order.
    #[must_use]
    pub fn table1_quick() -> Vec<Self> {
        vec![
            Strategy::Baseline,
            Strategy::multimodel_quick(),
            Strategy::retraining_quick(),
            Strategy::lehdc_quick(),
        ]
    }
}

/// The result of running one strategy through the pipeline.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Strategy display name.
    pub strategy: &'static str,
    /// Accuracy on the training split.
    pub train_accuracy: f64,
    /// Accuracy on the held-out test split.
    pub test_accuracy: f64,
    /// Per-iteration trajectory (empty for one-shot strategies).
    pub history: TrainingHistory,
    /// The trained binary model, when the strategy produces one (all except
    /// multi-model, whose artifact is `K × n` hypervectors, and non-binary).
    pub model: Option<HdcModel>,
}

/// Builder for [`Pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineBuilder<'a> {
    data: &'a TrainTest,
    dim: Dim,
    levels: usize,
    seed: u64,
    threads: usize,
    recorder: obs::Recorder,
}

impl<'a> PipelineBuilder<'a> {
    /// Sets the hypervector dimension `D` (default 2048; the paper uses
    /// 10,000 — see `Dim` sweeps in Fig. 6 for why 2048 is usually enough).
    #[must_use]
    pub fn dim(mut self, dim: Dim) -> Self {
        self.dim = dim;
        self
    }

    /// Sets the quantization level count `Q` (default 32).
    #[must_use]
    pub fn levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    /// Sets the base seed for item memories and tie-breaking (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count used for encoding, the training of
    /// every strategy except LeHDC, and outcome evaluation (default:
    /// available parallelism). LeHDC trains on [`LehdcConfig::threads`]
    /// instead, so a caller wanting a threaded LeHDC run sets both.
    /// Results are bit-identical at any count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a metrics recorder: encode throughput at build time and
    /// every strategy's per-epoch training spans flow into it, and every
    /// `run` emits a `strategy_run` event. The default disabled recorder
    /// keeps the whole pipeline uninstrumented — and either way results are
    /// bit-identical, since instrumentation never touches an RNG stream.
    #[must_use]
    pub fn recorder(mut self, recorder: obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Normalizes, builds the encoder, and encodes both splits.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError`] for invalid encoder configurations or
    /// non-finite data.
    pub fn build(self) -> Result<Pipeline, LehdcError> {
        let mut train = self.data.train.clone();
        let mut test = self.data.test.clone();
        let normalizer = MinMaxNormalizer::fit(&train)?;
        normalizer.apply(&mut train);
        normalizer.apply(&mut test);
        let encoder = RecordEncoder::builder(self.dim, train.n_features())
            .levels(self.levels)
            .value_range(0.0, 1.0)
            .seed(self.seed)
            .build()?;
        let engine = EpochEngine::new(self.threads).with_recorder(self.recorder);
        let encoded_train = EncodedDataset::encode(&train, &encoder, &engine)?;
        let encoded_test = EncodedDataset::encode(&test, &encoder, &engine)?;
        Ok(Pipeline {
            encoder,
            normalizer: Some(normalizer),
            encoded_train,
            encoded_test,
            seed: self.seed,
            engine,
        })
    }
}

/// An encoded train/test pair ready to run any [`Strategy`].
///
/// Encoding happens once at build time; every `run` call reuses it — which
/// mirrors the paper's framing that the strategies differ *only* in
/// training.
///
/// # Examples
///
/// ```
/// use hdc_datasets::BenchmarkProfile;
/// use lehdc::{Pipeline, Strategy};
///
/// # fn main() -> Result<(), lehdc::LehdcError> {
/// let data = BenchmarkProfile::pamap().quick().generate(1)?;
/// let pipeline = Pipeline::builder(&data).dim(hdc::Dim::new(1024)).build()?;
/// let outcome = pipeline.run(Strategy::Baseline)?;
/// assert!(outcome.test_accuracy > 0.2); // well above 1/5 chance
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    encoder: RecordEncoder,
    normalizer: Option<MinMaxNormalizer>,
    encoded_train: EncodedDataset,
    encoded_test: EncodedDataset,
    seed: u64,
    engine: EpochEngine,
}

impl Pipeline {
    /// Starts building a pipeline over a train/test pair.
    #[must_use]
    pub fn builder(data: &TrainTest) -> PipelineBuilder<'_> {
        PipelineBuilder {
            data,
            dim: Dim::new(2048),
            levels: 32,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            recorder: obs::Recorder::disabled(),
        }
    }

    /// Wraps pre-encoded splits (for callers that encode themselves).
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if the splits disagree on
    /// dimension or class count. The wrapped pipeline has no encoder state
    /// beyond what the splits carry.
    pub fn from_encoded(
        encoder: RecordEncoder,
        train: EncodedDataset,
        test: EncodedDataset,
        seed: u64,
    ) -> Result<Self, LehdcError> {
        if train.dim() != test.dim() || train.n_classes() != test.n_classes() {
            return Err(LehdcError::InvalidConfig(format!(
                "train (D={}, K={}) and test (D={}, K={}) disagree",
                train.dim(),
                train.n_classes(),
                test.dim(),
                test.n_classes()
            )));
        }
        Ok(Pipeline {
            encoder,
            normalizer: None,
            encoded_train: train,
            encoded_test: test,
            seed,
            engine: EpochEngine::default(),
        })
    }

    /// The record encoder used for both splits.
    #[must_use]
    pub fn encoder(&self) -> &RecordEncoder {
        &self.encoder
    }

    /// The execution context every `run` trains and evaluates on: the
    /// builder's thread count and recorder.
    #[must_use]
    pub fn engine(&self) -> &EpochEngine {
        &self.engine
    }

    /// Attaches a metrics recorder to an already-built pipeline (see
    /// [`PipelineBuilder::recorder`]).
    pub fn set_recorder(&mut self, recorder: obs::Recorder) {
        self.engine.rec = recorder;
    }

    /// The feature normalizer fitted on the training split, if
    /// normalization was enabled. Persist it alongside the model (see
    /// [`ModelBundle`](crate::io::ModelBundle)) — raw features must pass
    /// through it before encoding at deployment time.
    #[must_use]
    pub fn normalizer(&self) -> Option<&MinMaxNormalizer> {
        self.normalizer.as_ref()
    }

    /// The encoded training split.
    #[must_use]
    pub fn encoded_train(&self) -> &EncodedDataset {
        &self.encoded_train
    }

    /// The encoded test split.
    #[must_use]
    pub fn encoded_test(&self) -> &EncodedDataset {
        &self.encoded_test
    }

    /// The hypervector dimension `D`.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.encoded_train.dim()
    }

    /// Runs one training strategy and evaluates on both splits.
    ///
    /// # Errors
    ///
    /// Propagates configuration and training errors from the strategy.
    pub fn run(&self, strategy: Strategy) -> Result<Outcome, LehdcError> {
        let rec = self.engine.recorder();
        let run_timer = rec.start();
        let outcome = self.run_inner(strategy)?;
        if rec.enabled() {
            let ns = rec.observe_since("pipeline/run_ns", &run_timer);
            rec.emit(
                "strategy_run",
                &[
                    ("strategy", obs::Value::Str(outcome.strategy)),
                    ("train_accuracy", obs::Value::F64(outcome.train_accuracy)),
                    ("test_accuracy", obs::Value::F64(outcome.test_accuracy)),
                    ("epochs_recorded", obs::Value::U64(outcome.history.len() as u64)),
                    ("wall_ns", obs::Value::U64(ns)),
                ],
            );
        }
        Ok(outcome)
    }

    fn run_inner(&self, strategy: Strategy) -> Result<Outcome, LehdcError> {
        let (train, test, engine) = (&self.encoded_train, &self.encoded_test, &self.engine);
        let name = strategy.name();
        let (model, history) = match strategy {
            Strategy::Baseline => {
                (train_baseline(train, self.seed, engine)?, TrainingHistory::new())
            }
            Strategy::Retraining(cfg) => train_retraining(train, Some(test), &cfg, engine)?,
            Strategy::Enhanced(cfg) => train_enhanced(train, Some(test), &cfg, engine)?,
            Strategy::Adaptive(cfg) => train_adaptive(train, Some(test), &cfg, engine)?,
            Strategy::Lehdc(cfg) => {
                let cfg = LehdcConfig {
                    seed: hdc::rng::derive_seed(self.seed, cfg.seed),
                    ..cfg
                };
                train_lehdc(train, Some(test), &cfg, engine.recorder())?
            }
            Strategy::MultiModel(cfg) => {
                let cfg = MultiModelConfig {
                    seed: hdc::rng::derive_seed(self.seed, cfg.seed),
                    ..cfg
                };
                let (mm, history) = train_multimodel(train, Some(test), &cfg, engine)?;
                return Ok(self.outcome(name, &mm, history));
            }
            Strategy::NonBinary { alpha, iterations } => {
                let (model, history) =
                    train_nonbinary(train, Some(test), alpha, iterations, engine)?;
                return Ok(self.outcome(name, &model, history));
            }
        };
        let mut outcome = self.outcome(name, &model, history);
        outcome.model = Some(model);
        Ok(outcome)
    }

    /// K-fold cross-validation of a strategy over a *raw* dataset: each
    /// fold re-normalizes and re-encodes its own training split (no
    /// leakage), runs the strategy, and reports the held-out accuracy.
    ///
    /// Returns the per-fold test accuracies in fold order.
    ///
    /// # Errors
    ///
    /// Propagates fold-construction errors from
    /// [`k_folds`](hdc_datasets::cv::k_folds) and training errors from the
    /// strategy.
    ///
    /// # Examples
    ///
    /// ```
    /// use hdc_datasets::BenchmarkProfile;
    /// use lehdc::{Pipeline, Strategy};
    ///
    /// # fn main() -> Result<(), lehdc::LehdcError> {
    /// let data = BenchmarkProfile::pamap().quick().generate(2)?;
    /// let accs = Pipeline::cross_validate(
    ///     &data.train,
    ///     3,
    ///     hdc::Dim::new(512),
    ///     7,
    ///     &Strategy::Baseline,
    /// )?;
    /// assert_eq!(accs.len(), 3);
    /// assert!(accs.iter().all(|&a| a > 0.2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn cross_validate(
        dataset: &hdc_datasets::Dataset,
        k: usize,
        dim: Dim,
        seed: u64,
        strategy: &Strategy,
    ) -> Result<Vec<f64>, LehdcError> {
        let folds = hdc_datasets::cv::k_folds(dataset, k)?;
        let mut accuracies = Vec::with_capacity(k);
        for (fold_idx, fold) in folds.iter().enumerate() {
            let pipeline = Pipeline::builder(fold)
                .dim(dim)
                .seed(seed.wrapping_add(fold_idx as u64))
                .build()?;
            accuracies.push(pipeline.run(strategy.clone())?.test_accuracy);
        }
        Ok(accuracies)
    }

    /// Scores `classifier` on both splits through the engine (the outcome
    /// carries no model; the caller attaches binary ones).
    fn outcome<M: Classifier>(
        &self,
        strategy: &'static str,
        classifier: &M,
        history: TrainingHistory,
    ) -> Outcome {
        let (train, test) = (&self.encoded_train, &self.encoded_test);
        Outcome {
            strategy,
            train_accuracy: self.engine.accuracy(classifier, train.hvs(), train.labels()),
            test_accuracy: self.engine.accuracy(classifier, test.hvs(), test.labels()),
            history,
            model: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::Encode;
    use hdc_datasets::BenchmarkProfile;

    fn quick_pipeline(seed: u64) -> Pipeline {
        let data = BenchmarkProfile::pamap()
            .with_features(24)
            .with_samples(150, 60)
            .generate(seed)
            .unwrap();
        Pipeline::builder(&data)
            .dim(Dim::new(1024))
            .levels(16)
            .seed(seed)
            .threads(2)
            .build()
            .unwrap()
    }

    #[test]
    fn every_strategy_runs_and_beats_chance() {
        let pipeline = quick_pipeline(1);
        let strategies = vec![
            Strategy::Baseline,
            Strategy::multimodel_quick(),
            Strategy::retraining_quick(),
            Strategy::enhanced_quick(),
            Strategy::adaptive_quick(),
            Strategy::Lehdc(LehdcConfig::quick().with_epochs(10)),
            Strategy::NonBinary {
                alpha: 1.0,
                iterations: 5,
            },
        ];
        for strategy in strategies {
            let name = strategy.name();
            let outcome = pipeline.run(strategy).unwrap();
            assert!(
                outcome.test_accuracy > 0.2, // chance = 1/5
                "{name} test accuracy {} is at/below chance",
                outcome.test_accuracy
            );
        }
    }

    #[test]
    fn lehdc_beats_baseline_on_the_hard_profile() {
        let data = BenchmarkProfile::cifar10()
            .with_features(48)
            .with_samples(300, 100)
            .generate(3)
            .unwrap();
        let pipeline = Pipeline::builder(&data)
            .dim(Dim::new(1024))
            .seed(3)
            .threads(2)
            .build()
            .unwrap();
        let baseline = pipeline.run(Strategy::Baseline).unwrap();
        let lehdc = pipeline
            .run(Strategy::Lehdc(LehdcConfig::quick().with_epochs(20)))
            .unwrap();
        assert!(
            lehdc.test_accuracy > baseline.test_accuracy,
            "LeHDC {} must beat baseline {}",
            lehdc.test_accuracy,
            baseline.test_accuracy
        );
    }

    #[test]
    fn pipeline_accessors_are_consistent() {
        let pipeline = quick_pipeline(2);
        assert_eq!(pipeline.dim(), Dim::new(1024));
        assert_eq!(pipeline.encoded_train().len(), 150);
        assert_eq!(pipeline.encoded_test().len(), 60);
        assert_eq!(pipeline.encoder().n_features(), 24);
    }

    #[test]
    fn from_encoded_validates_consistency() {
        let p1 = quick_pipeline(4);
        let p2 = {
            let data = BenchmarkProfile::pamap()
                .with_features(24)
                .with_samples(20, 10)
                .generate(4)
                .unwrap();
            Pipeline::builder(&data)
                .dim(Dim::new(512)) // different D
                .threads(1)
                .build()
                .unwrap()
        };
        assert!(Pipeline::from_encoded(
            p1.encoder().clone(),
            p1.encoded_train().clone(),
            p2.encoded_test().clone(),
            0,
        )
        .is_err());
        assert!(Pipeline::from_encoded(
            p1.encoder().clone(),
            p1.encoded_train().clone(),
            p1.encoded_test().clone(),
            0,
        )
        .is_ok());
    }

    #[test]
    fn strategy_names_match_tables() {
        assert_eq!(Strategy::Baseline.name(), "Baseline");
        assert_eq!(Strategy::lehdc_quick().name(), "LeHDC");
        assert_eq!(Strategy::table1_quick().len(), 4);
        assert_eq!(
            Strategy::table1_quick()
                .iter()
                .map(Strategy::name)
                .collect::<Vec<_>>(),
            vec!["Baseline", "Multi-Model", "Retraining", "LeHDC"]
        );
    }

    #[test]
    fn cross_validation_covers_every_fold() {
        let data = BenchmarkProfile::pamap()
            .with_features(16)
            .with_samples(90, 30)
            .generate(8)
            .unwrap();
        let accs =
            Pipeline::cross_validate(&data.train, 3, Dim::new(512), 1, &Strategy::Baseline)
                .unwrap();
        assert_eq!(accs.len(), 3);
        assert!(accs.iter().all(|&a| (0.0..=1.0).contains(&a)));
        // determinism
        let again =
            Pipeline::cross_validate(&data.train, 3, Dim::new(512), 1, &Strategy::Baseline)
                .unwrap();
        assert_eq!(accs, again);
        // invalid fold counts propagate as errors
        assert!(
            Pipeline::cross_validate(&data.train, 1, Dim::new(512), 1, &Strategy::Baseline)
                .is_err()
        );
    }

    #[test]
    fn outcomes_carry_models_where_expected() {
        let pipeline = quick_pipeline(5);
        assert!(pipeline.run(Strategy::Baseline).unwrap().model.is_some());
        assert!(pipeline
            .run(Strategy::multimodel_quick())
            .unwrap()
            .model
            .is_none());
    }
}
