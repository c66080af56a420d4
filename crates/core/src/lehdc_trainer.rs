//! The LeHDC trainer: class hypervectors learned as the weights of an
//! equivalent single-layer BNN (paper Sec. 4).
//!
//! Training follows the paper's recipe exactly:
//!
//! - the BNN input is the encoded sample `En(x) ∈ {-1, +1}^D` (bipolar);
//! - the weight matrix `C ∈ {-1, +1}^{D×K}` is the binarization of a latent
//!   real matrix `C_nb` (Eq. 8), updated with the straight-through
//!   estimator (the layer stores both class-major, one row per class);
//! - the loss is softmax cross-entropy over the `K` outputs (Eq. 9) plus an
//!   L2 penalty `λ/2‖C_nb‖²` (Eq. 10), optimized with **Adam**;
//! - **dropout** on the input and **weight decay** fight the overfitting a
//!   wide single layer is prone to (Fig. 5);
//! - the learning rate decays when the training loss increases;
//! - after training, `C = sgn(C_nb)` *is* the class-hypervector set — the
//!   inference path is the unchanged binary HDC classifier.
//!
//! The hot path runs on bit-packed XNOR/popcount kernels and allocates
//! nothing per batch: every per-step buffer lives in a [`TrainScratch`]
//! refilled in place. Batches come from
//! [`EncodedDataset::packed_batch_pooled_into`] (a pool-parallel word copy,
//! no `BinaryHv → f32` expansion per epoch), dropout is a per-batch bit mask
//! whose survivor scale is applied once to the integer logits, the gradient
//! product reads signs straight from the packed bits and writes the `K×D`
//! class-major latent gradient, and the Adam update is fused with the
//! repack of the packed weight words (`BinaryLinear::apply_gradient_fused`).
//! See `binnet::packed` for the argument that this is bit-identical to the
//! dense `f32` formulation.

use binnet::{
    softmax_cross_entropy_into, Adam, BatchSampler, BinaryLinear, Dropout, Matrix, Optimizer,
    PackedMatrix, PlateauDecay,
};
use hdc::BinaryHv;
use threadpool::ThreadPool;

use crate::baseline::{bipolar_sums, class_accumulators_pooled};
use crate::encoded::EncodedDataset;
use crate::engine::EpochEngine;
use crate::error::LehdcError;
use crate::history::{EpochRecord, EpochTiming, TrainingHistory};
use crate::model::HdcModel;

/// LeHDC hyper-parameters (the paper's Table 2).
///
/// # Examples
///
/// ```
/// let cfg = lehdc::LehdcConfig::for_benchmark("Fashion-MNIST");
/// assert_eq!(cfg.weight_decay, 0.03);
/// assert_eq!(cfg.learning_rate, 0.1);
/// assert_eq!(cfg.batch_size, 256);
/// assert_eq!(cfg.dropout, 0.3);
/// assert_eq!(cfg.epochs, 200);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LehdcConfig {
    /// L2 weight-decay coefficient `λ` (Table 2 "WD").
    pub weight_decay: f32,
    /// Adam learning rate (Table 2 "LR").
    pub learning_rate: f32,
    /// Mini-batch size (Table 2 "B").
    pub batch_size: usize,
    /// Input dropout rate (Table 2 "DR").
    pub dropout: f32,
    /// Training epochs (Table 2 "Epochs").
    pub epochs: usize,
    /// Multiply the LR by this factor whenever the training loss rises.
    pub lr_decay: f32,
    /// Warm-start the latent weights from the baseline class sums instead of
    /// random initialization (keeps early epochs close to baseline HDC).
    pub warm_start: bool,
    /// RNG seed for initialization, batching, and dropout masks.
    pub seed: u64,
    /// Record train/test accuracy every `eval_every` epochs (1 = always).
    pub eval_every: usize,
    /// Optional validation-split early stopping — one of the "implicit
    /// hyper-parameters" the paper's conclusion singles out (the ratio of
    /// the validation set).
    pub early_stopping: Option<EarlyStopping>,
    /// Optional element-wise gradient clipping bound (a common BNN training
    /// stabilizer alongside latent clipping; `None` = off).
    pub grad_clip: Option<f32>,
    /// OS threads for the packed matrix products and accuracy evaluations.
    /// The trained model is bit-identical at any thread count (threads chunk
    /// over output rows, never over a reduction).
    pub threads: usize,
}

/// Validation-split early-stopping policy for [`LehdcConfig`].
///
/// A `fraction` of the training samples is held out before training; after
/// every epoch the binary model is evaluated on it, and training stops when
/// `patience` consecutive epochs fail to improve the best validation
/// accuracy. The returned model is the best-validation snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyStopping {
    /// Fraction of the training split held out for validation, in `(0, 1)`.
    pub fraction: f32,
    /// Number of non-improving epochs tolerated before stopping.
    pub patience: usize,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        EarlyStopping {
            fraction: 0.1,
            patience: 10,
        }
    }
}

impl Default for LehdcConfig {
    fn default() -> Self {
        LehdcConfig {
            weight_decay: 0.05,
            learning_rate: 0.01,
            batch_size: 64,
            dropout: 0.5,
            epochs: 100,
            lr_decay: 0.5,
            warm_start: true,
            seed: 0,
            eval_every: 1,
            early_stopping: None,
            grad_clip: None,
            threads: 1,
        }
    }
}

impl LehdcConfig {
    /// The per-dataset hyper-parameters of the paper's Table 2. Unknown
    /// names get the MNIST/UCIHAR/ISOLET/PAMAP row (the paper's default).
    #[must_use]
    pub fn for_benchmark(name: &str) -> Self {
        match name {
            "Fashion-MNIST" => LehdcConfig {
                weight_decay: 0.03,
                learning_rate: 0.1,
                batch_size: 256,
                dropout: 0.3,
                epochs: 200,
                ..LehdcConfig::default()
            },
            "CIFAR-10" => LehdcConfig {
                weight_decay: 0.03,
                learning_rate: 0.001,
                batch_size: 512,
                dropout: 0.3,
                epochs: 200,
                ..LehdcConfig::default()
            },
            // MNIST, UCIHAR, ISOLET, PAMAP and anything else
            _ => LehdcConfig::default(),
        }
    }

    /// A laptop-scale preset: Table 2 rates with 25 epochs and batch 32.
    #[must_use]
    pub fn quick() -> Self {
        LehdcConfig {
            epochs: 25,
            batch_size: 32,
            ..LehdcConfig::default()
        }
    }

    /// Scales the epoch count (for `--quick` experiment modes), keeping at
    /// least one epoch.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables weight decay (Fig. 5 ablation).
    #[must_use]
    pub fn without_weight_decay(mut self) -> Self {
        self.weight_decay = 0.0;
        self
    }

    /// Disables dropout (Fig. 5 ablation).
    #[must_use]
    pub fn without_dropout(mut self) -> Self {
        self.dropout = 0.0;
        self
    }

    /// Enables validation-split early stopping.
    #[must_use]
    pub fn with_early_stopping(mut self, early_stopping: EarlyStopping) -> Self {
        self.early_stopping = Some(early_stopping);
        self
    }

    /// Enables element-wise gradient clipping at `±bound`.
    #[must_use]
    pub fn with_grad_clip(mut self, bound: f32) -> Self {
        self.grad_clip = Some(bound);
        self
    }

    /// Sets the worker-thread count for training and evaluation.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] for non-positive rates, a
    /// dropout outside `[0, 1)`, or zero epochs/batch size.
    pub fn validate(&self) -> Result<(), LehdcError> {
        if self.epochs == 0 || self.batch_size == 0 || self.eval_every == 0 {
            return Err(LehdcError::InvalidConfig(
                "epochs, batch size, and eval_every must be non-zero".into(),
            ));
        }
        if self.threads == 0 {
            return Err(LehdcError::InvalidConfig(
                "thread count must be non-zero".into(),
            ));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(LehdcError::InvalidConfig(format!(
                "learning rate must be positive, got {}",
                self.learning_rate
            )));
        }
        if !self.weight_decay.is_finite() || self.weight_decay < 0.0 {
            return Err(LehdcError::InvalidConfig(format!(
                "weight decay must be non-negative, got {}",
                self.weight_decay
            )));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(LehdcError::InvalidConfig(format!(
                "dropout must be in [0, 1), got {}",
                self.dropout
            )));
        }
        if !(0.0..1.0).contains(&self.lr_decay) || self.lr_decay == 0.0 {
            return Err(LehdcError::InvalidConfig(format!(
                "lr_decay must be in (0, 1), got {}",
                self.lr_decay
            )));
        }
        if let Some(bound) = self.grad_clip {
            if !bound.is_finite() || bound <= 0.0 {
                return Err(LehdcError::InvalidConfig(format!(
                    "grad_clip bound must be positive and finite, got {bound}"
                )));
            }
        }
        if let Some(es) = &self.early_stopping {
            if !es.fraction.is_finite() || !(0.0..1.0).contains(&es.fraction) || es.fraction == 0.0
            {
                return Err(LehdcError::InvalidConfig(format!(
                    "early-stopping fraction must be in (0, 1), got {}",
                    es.fraction
                )));
            }
            if es.patience == 0 {
                return Err(LehdcError::InvalidConfig(
                    "early-stopping patience must be non-zero".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Reusable per-batch buffers of the training hot loop.
///
/// One mini-batch step touches ~`B·D/8 + 2·B·K·4 + K·D·4` bytes of scratch
/// (the packed batch, logits, their gradient, and the class-major `K×D`
/// latent gradient — roughly 400 KB/step at `D = 10⁴`, `K = 10`, `B = 64`).
/// Allocating these fresh every step is pure overhead: the shapes repeat,
/// so the trainer hoists them into this struct and refills in place. Every
/// `_into` path writes the same bits as its allocating twin, so reuse
/// cannot change the trained model (pinned by
/// `scratch_reuse_matches_fresh_buffers`).
struct TrainScratch {
    batch_indices: Vec<usize>,
    labels: Vec<usize>,
    x: PackedMatrix,
    logits: Matrix,
    dlogits: Matrix,
    grad: Matrix,
}

impl TrainScratch {
    fn new(d: usize, k: usize, batch: usize) -> TrainScratch {
        TrainScratch {
            batch_indices: Vec::with_capacity(batch),
            labels: Vec::with_capacity(batch),
            x: PackedMatrix::empty(),
            logits: Matrix::zeros(batch.max(1), k),
            dlogits: Matrix::zeros(batch.max(1), k),
            grad: Matrix::zeros(k, d),
        }
    }

    /// The data pointers of every buffer — stable across steps once each
    /// buffer has reached its steady capacity (i.e. the hot loop allocates
    /// nothing per batch).
    #[cfg(test)]
    fn fingerprint(&self) -> [usize; 6] {
        [
            self.batch_indices.as_ptr() as usize,
            self.labels.as_ptr() as usize,
            self.x.row_words(0).as_ptr() as usize,
            self.logits.as_slice().as_ptr() as usize,
            self.dlogits.as_slice().as_ptr() as usize,
            self.grad.as_slice().as_ptr() as usize,
        ]
    }
}

/// Per-epoch accumulators for the batch-step phase spans (all nanoseconds;
/// all zero — and never touched by a clock read — when the recorder is
/// disabled).
#[derive(Debug, Default, Clone, Copy)]
struct PhaseSpans {
    assembly_ns: u64,
    forward_ns: u64,
    backward_ns: u64,
    optimizer_ns: u64,
}

/// One fused LeHDC mini-batch step, entirely in `scratch` buffers: packed
/// batch assembly, masked forward, loss/gradient, packed backward, and the
/// fused Adam + repack update. Returns the batch loss.
///
/// Phase wall-clock accumulates into `spans` when `rec` is enabled; the
/// step's math and RNG draws are identical either way.
#[allow(clippy::too_many_arguments)]
fn lehdc_batch_step(
    train: &EncodedDataset,
    fit_indices: &[usize],
    positions: &[usize],
    layer: &mut BinaryLinear,
    opt: &mut Adam,
    dropout: &mut Dropout,
    grad_clip: Option<f32>,
    pool: &ThreadPool,
    scratch: &mut TrainScratch,
    rec: &obs::Recorder,
    spans: &mut PhaseSpans,
) -> Result<f64, LehdcError> {
    let d = layer.d_in();
    let t = rec.start();
    scratch.batch_indices.clear();
    scratch
        .batch_indices
        .extend(positions.iter().map(|&p| fit_indices[p]));
    train.packed_batch_pooled_into(
        &scratch.batch_indices,
        pool,
        &mut scratch.x,
        &mut scratch.labels,
    );
    spans.assembly_ns += t.elapsed_ns();
    // Dropout is one bit mask per batch; its inverted-dropout scale is
    // applied once to the exact integer logits, and again to dlogits so the
    // latent gradient matches the dense formulation.
    let t = rec.start();
    let mask = dropout.sample_mask(d);
    match &mask {
        Some(m) => {
            layer.forward_packed_masked_into(&scratch.x, m, &mut scratch.logits);
            scratch.logits.scale(m.scale());
        }
        None => layer.forward_packed_into(&scratch.x, &mut scratch.logits),
    }
    spans.forward_ns += t.elapsed_ns();
    let t = rec.start();
    let loss = softmax_cross_entropy_into(&scratch.logits, &scratch.labels, &mut scratch.dlogits)?;
    if let Some(m) = &mask {
        scratch.dlogits.scale(m.scale());
    }
    layer.backward_packed_into(&scratch.x, mask.as_ref(), &scratch.dlogits, &mut scratch.grad);
    spans.backward_ns += t.elapsed_ns();
    // Gradient clipping happens inside the fused update — element-wise clamp
    // before the Adam step, bit-identical to clamping the buffer first.
    let t = rec.start();
    layer.apply_gradient_fused(&scratch.grad, opt, grad_clip);
    spans.optimizer_ns += t.elapsed_ns();
    Ok(loss)
}

/// Trains class hypervectors with the LeHDC equivalent-BNN recipe.
///
/// Returns the binary HDC model (`C = sgn(C_nb)`) and the per-epoch
/// training trajectory. When `test` is given, test accuracy is evaluated
/// with the *binary* model via the standard Hamming-distance inference path
/// — exactly what would run on deployment hardware. Training and
/// evaluation run on [`LehdcConfig::threads`] workers.
///
/// Per-epoch phase spans (batch assembly / forward / backward / fused
/// optimizer / eval), throughput, and the post-`PlateauDecay` learning rate
/// flow into `rec` as histograms, counters, gauges, and one `train_epoch`
/// event per epoch; evaluated epochs additionally carry [`EpochTiming`] on
/// their history record. Instrumentation reads only the wall clock — never
/// an RNG stream — so the trained model is bit-identical with or without a
/// recorder at any thread count (pinned by the determinism tests); a
/// disabled recorder's timer calls short-circuit without reading the clock.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] for an invalid configuration,
/// early stopping on fewer than 2 training samples, or a class with no
/// samples when `warm_start` is enabled.
pub fn train_lehdc(
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    config: &LehdcConfig,
    rec: &obs::Recorder,
) -> Result<(HdcModel, TrainingHistory), LehdcError> {
    train_lehdc_impl(train, test, config, false, rec)
}

/// [`train_lehdc`] with a switch that rebuilds the scratch buffers before
/// every batch — the reference against which buffer reuse is pinned
/// bit-identical in tests.
fn train_lehdc_impl(
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    config: &LehdcConfig,
    fresh_scratch_per_step: bool,
    rec: &obs::Recorder,
) -> Result<(HdcModel, TrainingHistory), LehdcError> {
    config.validate()?;
    let d = train.dim().get();
    let k = train.n_classes();
    // Batch assembly, warm start and evaluation fan out over this engine;
    // its persistent workers are shared with the layer's own products, so
    // dispatch stays cheap.
    let engine = EpochEngine::new(config.threads);

    // Carve a validation split off the training samples when early stopping
    // is requested; otherwise fit on everything.
    let all_indices: Vec<usize> = (0..train.len()).collect();
    let (fit_indices, val_indices): (Vec<usize>, Vec<usize>) = match &config.early_stopping {
        Some(_) if train.len() < 2 => {
            return Err(LehdcError::InvalidConfig(format!(
                "early stopping needs at least 2 training samples to hold out a validation \
                 split, got {}",
                train.len()
            )));
        }
        Some(es) => {
            use testkit::SliceRandom;
            let mut order = all_indices.clone();
            let mut rng = hdc::rng::rng_for(config.seed, 0xE5_011);
            order.shuffle(&mut rng);
            let n_val = ((train.len() as f32 * es.fraction) as usize)
                .clamp(1, train.len().saturating_sub(1));
            let (val, fit) = order.split_at(n_val);
            (fit.to_vec(), val.to_vec())
        }
        None => (all_indices, Vec::new()),
    };

    let layer = if config.warm_start {
        // Initialize C_nb from the class sums over the fitting samples,
        // normalized into the latent range so Adam's early steps can still
        // flip bits. The exact bit-sliced counts convert to the same f32
        // values a sequential ±1.0 sum would produce.
        let accumulators = class_accumulators_pooled(train, &fit_indices, engine.pool())?;
        let sums = bipolar_sums(&accumulators);
        let scale = 0.05 / (fit_indices.len() as f32 / k as f32).max(1.0);
        BinaryLinear::with_init(d, k, |r, c| sums[c].values()[r] * scale)
    } else {
        BinaryLinear::new(d, k, hdc::rng::derive_seed(config.seed, 0x1417))
    };
    // The layer shares the recorder: its packed products feed per-call
    // latency histograms (`layer/*_ns`) under the trainer's epoch spans.
    let mut layer = layer.with_threads(config.threads).with_recorder(rec.clone());

    let mut opt = Adam::new(config.learning_rate).weight_decay(config.weight_decay);
    let mut dropout = Dropout::new(config.dropout, hdc::rng::derive_seed(config.seed, 0xD40))?;
    let mut sched = PlateauDecay::new(config.lr_decay, 1e-6)?;
    let sampler = BatchSampler::new(
        fit_indices.len(),
        config.batch_size.min(fit_indices.len()),
        hdc::rng::derive_seed(config.seed, 0xBA7C),
    )?;
    let mut history = TrainingHistory::new();
    let pool = engine.pool();
    let mut scratch = TrainScratch::new(d, k, config.batch_size.min(fit_indices.len()));

    // The held-out split, gathered once for the engine's batched accuracy.
    let val_hvs: Vec<BinaryHv> = val_indices.iter().map(|&i| train.hvs()[i].clone()).collect();
    let val_labels: Vec<usize> = val_indices.iter().map(|&i| train.labels()[i]).collect();

    let mut best: Option<(f64, HdcModel)> = None;
    let mut stale_epochs = 0usize;

    for epoch in 0..config.epochs {
        let epoch_timer = rec.start();
        let mut spans = PhaseSpans::default();
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        let mut epoch_samples = 0usize;
        for batch_positions in sampler.epoch(epoch) {
            if fresh_scratch_per_step {
                scratch = TrainScratch::new(d, k, batch_positions.len());
            }
            let loss = lehdc_batch_step(
                train,
                &fit_indices,
                &batch_positions,
                &mut layer,
                &mut opt,
                &mut dropout,
                config.grad_clip,
                &pool,
                &mut scratch,
                rec,
                &mut spans,
            )?;
            epoch_loss += loss;
            batches += 1;
            epoch_samples += batch_positions.len();
        }
        let train_ns = epoch_timer.elapsed_ns();
        let mean_loss = epoch_loss / batches.max(1) as f64;
        let lr = sched.observe(mean_loss, opt.learning_rate());
        opt.set_learning_rate(lr);

        let last_epoch = epoch + 1 == config.epochs;
        let early = config.early_stopping.as_ref();
        let mut stop = false;
        let mut val_accuracy = None;

        let eval_timer = rec.start();
        if let Some(es) = early {
            let model = model_from_layer(&layer)?;
            let acc = engine.accuracy(&model, &val_hvs, &val_labels);
            val_accuracy = Some(acc);
            match &best {
                Some((best_acc, _)) if acc <= *best_acc => {
                    stale_epochs += 1;
                    if stale_epochs >= es.patience {
                        stop = true;
                    }
                }
                _ => {
                    best = Some((acc, model));
                    stale_epochs = 0;
                }
            }
        }

        let evaluated = if epoch % config.eval_every == 0 || last_epoch || stop {
            let model = model_from_layer(&layer)?;
            let train_accuracy = engine.accuracy(&model, train.hvs(), train.labels());
            let test_accuracy = test.map(|t| engine.accuracy(&model, t.hvs(), t.labels()));
            Some((train_accuracy, test_accuracy))
        } else {
            None
        };
        let eval_ns = eval_timer.elapsed_ns();
        let epoch_ns = epoch_timer.elapsed_ns();
        let samples_per_sec = if train_ns == 0 {
            0.0
        } else {
            epoch_samples as f64 * 1e9 / train_ns as f64
        };

        let timing = rec.enabled().then(|| EpochTiming {
            assembly_ns: spans.assembly_ns,
            forward_ns: spans.forward_ns,
            backward_ns: spans.backward_ns,
            optimizer_ns: spans.optimizer_ns,
            eval_ns,
            epoch_ns,
            samples_per_sec,
            ..EpochTiming::default()
        });
        if rec.enabled() {
            rec.observe_ns("train/epoch_ns", epoch_ns);
            rec.observe_ns("train/assembly_ns", spans.assembly_ns);
            rec.observe_ns("train/forward_ns", spans.forward_ns);
            rec.observe_ns("train/backward_ns", spans.backward_ns);
            rec.observe_ns("train/optimizer_ns", spans.optimizer_ns);
            rec.observe_ns("train/eval_ns", eval_ns);
            rec.add("train/epochs", 1);
            rec.add("train/batches", batches as u64);
            rec.add("train/samples", epoch_samples as u64);
            rec.gauge("train/lr", f64::from(lr));
            rec.gauge("train/samples_per_sec", samples_per_sec);
            let mut fields = vec![
                ("epoch", obs::Value::U64(epoch as u64)),
                ("loss", obs::Value::F64(mean_loss)),
                ("lr", obs::Value::F64(f64::from(lr))),
                ("samples", obs::Value::U64(epoch_samples as u64)),
                ("samples_per_sec", obs::Value::F64(samples_per_sec)),
                ("assembly_ns", obs::Value::U64(spans.assembly_ns)),
                ("forward_ns", obs::Value::U64(spans.forward_ns)),
                ("backward_ns", obs::Value::U64(spans.backward_ns)),
                ("optimizer_ns", obs::Value::U64(spans.optimizer_ns)),
                ("eval_ns", obs::Value::U64(eval_ns)),
                ("epoch_ns", obs::Value::U64(epoch_ns)),
            ];
            if let Some((train_acc, test_acc)) = &evaluated {
                fields.push(("train_accuracy", obs::Value::F64(*train_acc)));
                if let Some(test_acc) = test_acc {
                    fields.push(("test_accuracy", obs::Value::F64(*test_acc)));
                }
            }
            if let Some(val_acc) = val_accuracy {
                fields.push(("validation_accuracy", obs::Value::F64(val_acc)));
            }
            rec.emit("train_epoch", &fields);
        }

        if let Some((train_accuracy, test_accuracy)) = evaluated {
            history.push(EpochRecord {
                epoch,
                train_accuracy,
                test_accuracy,
                validation_accuracy: val_accuracy,
                loss: Some(mean_loss),
                learning_rate: Some(lr),
                timing,
            });
        }
        if stop {
            break;
        }
    }

    let final_model = match best {
        Some((_, model)) => model, // best-validation snapshot
        None => model_from_layer(&layer)?,
    };
    Ok((final_model, history))
}

/// Extracts the binary HDC model from the layer's packed sign weights: row
/// `c` of the packed weights holds bit `latent >= 0.0` of class column `c`,
/// exactly the [`BinaryHv`] convention (bit `1` ≡ `+1`, `sgn(0) = +1`, zero
/// tail bits).
fn model_from_layer(layer: &BinaryLinear) -> Result<HdcModel, LehdcError> {
    let dim = hdc::Dim::new(layer.d_in());
    let packed = layer.packed_weights();
    let hvs = (0..layer.k_out())
        .map(|c| BinaryHv::from_words(packed.row_words(c).to_vec(), dim))
        .collect::<Result<Vec<_>, _>>()?;
    HdcModel::new(hvs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::train_baseline;
    use crate::retrain::{train_retraining, RetrainConfig};
    use crate::test_util::multimodal_corpus;

    #[test]
    fn config_presets_match_table2() {
        let mnist = LehdcConfig::for_benchmark("MNIST");
        assert_eq!(
            (mnist.weight_decay, mnist.learning_rate, mnist.batch_size, mnist.dropout, mnist.epochs),
            (0.05, 0.01, 64, 0.5, 100)
        );
        let cifar = LehdcConfig::for_benchmark("CIFAR-10");
        assert_eq!(
            (cifar.weight_decay, cifar.learning_rate, cifar.batch_size, cifar.dropout, cifar.epochs),
            (0.03, 0.001, 512, 0.3, 200)
        );
        for name in ["UCIHAR", "ISOLET", "PAMAP", "anything-else"] {
            assert_eq!(LehdcConfig::for_benchmark(name), LehdcConfig::default());
        }
    }

    #[test]
    fn config_validation() {
        assert!(LehdcConfig::default().validate().is_ok());
        assert!(LehdcConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(LehdcConfig {
            dropout: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(LehdcConfig {
            learning_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(LehdcConfig {
            weight_decay: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(LehdcConfig {
            lr_decay: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn lehdc_beats_baseline_and_retraining_on_hard_data() {
        let (train, test) = crate::test_util::hard_encoded_pair(31);
        let baseline = train_baseline(&train, 0, &EpochEngine::default()).unwrap();
        let (retrained, _) =
            train_retraining(&train, None, &RetrainConfig::quick(), &EpochEngine::default())
                .unwrap();
        let cfg = LehdcConfig {
            epochs: 25,
            batch_size: 32,
            learning_rate: 0.01,
            weight_decay: 0.01,
            dropout: 0.2,
            ..LehdcConfig::default()
        };
        let (learned, history) =
            train_lehdc(&train, Some(&test), &cfg, &obs::Recorder::disabled()).unwrap();
        let base = baseline.accuracy(test.hvs(), test.labels());
        let re = retrained.accuracy(test.hvs(), test.labels());
        let le = learned.accuracy(test.hvs(), test.labels());
        assert!(le > base, "lehdc {le} must beat baseline {base}");
        assert!(le >= re - 0.02, "lehdc {le} should match/beat retraining {re}");
        assert_eq!(history.len(), 25);
        assert!(history.records().iter().all(|r| r.loss.is_some()));
    }

    #[test]
    fn training_loss_decreases() {
        let (train, _) = crate::test_util::hard_encoded_pair(32);
        let cfg = LehdcConfig::quick().with_epochs(15);
        let (_, history) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        let losses: Vec<f64> = history.records().iter().filter_map(|r| r.loss).collect();
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss should fall: {losses:?}"
        );
    }

    #[test]
    fn lehdc_is_seed_reproducible() {
        let train = multimodal_corpus(2, 5, 256, 40, 33);
        let cfg = LehdcConfig::quick().with_epochs(5).with_seed(7);
        let (a, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        let (b, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        assert_eq!(a, b);
        let cfg8 = cfg.clone().with_seed(8);
        let (c, _) = train_lehdc(&train, None, &cfg8, &obs::Recorder::disabled()).unwrap();
        assert!(a != c || a.n_classes() == 2, "different seeds usually differ");
    }

    #[test]
    fn thread_count_does_not_change_the_trained_model() {
        // Same seed, different worker counts → bit-identical models and
        // histories, because threads only ever chunk over output rows.
        let train = multimodal_corpus(3, 5, 300, 30, 44);
        let base_cfg = LehdcConfig::quick().with_epochs(5).with_seed(11);
        let cfg1 = base_cfg.clone().with_threads(1);
        let cfg4 = base_cfg.with_threads(4);
        assert!(cfg4.validate().is_ok());
        let (m1, h1) = train_lehdc(&train, None, &cfg1, &obs::Recorder::disabled()).unwrap();
        let (m4, h4) = train_lehdc(&train, None, &cfg4, &obs::Recorder::disabled()).unwrap();
        assert_eq!(m1, m4);
        assert_eq!(h1.records(), h4.records());
        assert!(LehdcConfig::default().with_threads(0).validate().is_err());
    }

    #[test]
    fn scratch_reuse_matches_fresh_buffers() {
        // Reusing the TrainScratch across every step of training must be
        // bit-identical to rebuilding all buffers per batch, at any thread
        // count — the zero-alloc path changes *where* results are written,
        // never *what* is written.
        let train = multimodal_corpus(3, 5, 300, 30, 46);
        for threads in [1, 4] {
            let cfg = LehdcConfig::quick()
                .with_epochs(4)
                .with_seed(13)
                .with_grad_clip(0.05)
                .with_threads(threads);
            let rec = obs::Recorder::disabled();
            let (reused, h_reused) = train_lehdc_impl(&train, None, &cfg, false, &rec).unwrap();
            let (fresh, h_fresh) = train_lehdc_impl(&train, None, &cfg, true, &rec).unwrap();
            assert_eq!(reused, fresh, "threads={threads}");
            assert_eq!(h_reused.records(), h_fresh.records());
        }
    }

    #[test]
    fn train_steps_do_not_reallocate_scratch_buffers() {
        // Drive the per-batch step directly: after the first full-size
        // batch, every scratch buffer pointer must stay put — including
        // through a smaller partial batch and back — so the packed hot loop
        // performs no per-batch heap allocation.
        let train = multimodal_corpus(2, 10, 256, 40, 47);
        let d = train.dim().get();
        let k = train.n_classes();
        let fit_indices: Vec<usize> = (0..train.len()).collect();
        let mut layer = BinaryLinear::new(d, k, 5).with_threads(2);
        let mut opt = Adam::new(0.01).weight_decay(0.01);
        let mut dropout = Dropout::new(0.2, 9).unwrap();
        let pool = ThreadPool::new(2);
        let mut scratch = TrainScratch::new(d, k, 32);

        let full: Vec<usize> = (0..32).collect();
        let partial: Vec<usize> = (32..39).collect();
        let rec = obs::Recorder::disabled();
        let mut spans = PhaseSpans::default();
        lehdc_batch_step(
            &train, &fit_indices, &full, &mut layer, &mut opt, &mut dropout, None, &pool,
            &mut scratch, &rec, &mut spans,
        )
        .unwrap();
        let fp = scratch.fingerprint();
        for positions in [&partial, &full, &partial, &full] {
            lehdc_batch_step(
                &train, &fit_indices, positions, &mut layer, &mut opt, &mut dropout, None,
                &pool, &mut scratch, &rec, &mut spans,
            )
            .unwrap();
            assert_eq!(fp, scratch.fingerprint(), "scratch buffers must not move");
        }
    }

    #[test]
    fn cold_start_also_trains() {
        let train = multimodal_corpus(2, 8, 256, 30, 34);
        let cfg = LehdcConfig {
            warm_start: false,
            epochs: 15,
            batch_size: 8,
            dropout: 0.1,
            weight_decay: 0.001,
            ..LehdcConfig::default()
        };
        let (model, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        assert!(model.accuracy(train.hvs(), train.labels()) > 0.6);
    }

    #[test]
    fn eval_every_thins_the_history() {
        let train = multimodal_corpus(2, 4, 128, 20, 35);
        let cfg = LehdcConfig {
            epochs: 10,
            eval_every: 4,
            batch_size: 8,
            ..LehdcConfig::default()
        };
        let (_, history) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        // epochs 0, 4, 8, and the final epoch 9
        assert_eq!(history.len(), 4);
        assert_eq!(history.records().last().unwrap().epoch, 9);
    }

    #[test]
    fn early_stopping_halts_and_returns_best_snapshot() {
        let (train, test) = crate::test_util::hard_encoded_pair(36);
        let cfg = LehdcConfig::quick()
            .with_epochs(40)
            .with_early_stopping(EarlyStopping {
                fraction: 0.2,
                patience: 3,
            });
        let (model, history) =
            train_lehdc(&train, Some(&test), &cfg, &obs::Recorder::disabled()).unwrap();
        // validation accuracy was tracked
        assert!(history
            .records()
            .iter()
            .any(|r| r.validation_accuracy.is_some()));
        // the returned snapshot is a working classifier
        assert!(model.accuracy(test.hvs(), test.labels()) > 0.2);
        // patience 3 on 40 epochs almost always stops early; at minimum the
        // history cannot exceed the epoch budget
        assert!(history.len() <= 40);
    }

    #[test]
    fn early_stopping_rejects_a_one_sample_training_set() {
        // No validation split exists for one sample: a typed error, not the
        // `usize::clamp(1, 0)` panic of the split-size computation.
        let hv = BinaryHv::random(hdc::Dim::new(100), &mut hdc::rng::rng_for(3, 0));
        let train = EncodedDataset::from_parts(vec![hv], vec![0], 1).unwrap();
        let cfg = LehdcConfig::quick()
            .with_epochs(2)
            .with_early_stopping(EarlyStopping::default());
        for warm_start in [true, false] {
            let cfg = LehdcConfig {
                warm_start,
                ..cfg.clone()
            };
            match train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()) {
                Err(LehdcError::InvalidConfig(msg)) => {
                    assert!(msg.contains("at least 2 training samples"), "{msg}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        // without early stopping the same sample still trains
        let cfg = LehdcConfig::quick().with_epochs(2);
        let (model, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        assert_eq!(model.n_classes(), 1);
    }

    #[test]
    fn early_stopping_config_is_validated() {
        let es_bad_fraction = LehdcConfig::default().with_early_stopping(EarlyStopping {
            fraction: 0.0,
            patience: 3,
        });
        assert!(es_bad_fraction.validate().is_err());
        let es_bad_patience = LehdcConfig::default().with_early_stopping(EarlyStopping {
            fraction: 0.5,
            patience: 0,
        });
        assert!(es_bad_patience.validate().is_err());
        let es_ok = LehdcConfig::default().with_early_stopping(EarlyStopping::default());
        assert!(es_ok.validate().is_ok());
    }

    #[test]
    fn grad_clip_validates_and_trains() {
        assert!(LehdcConfig::default().with_grad_clip(0.0).validate().is_err());
        assert!(LehdcConfig::default()
            .with_grad_clip(f32::NAN)
            .validate()
            .is_err());
        let train = multimodal_corpus(2, 6, 256, 30, 37);
        let cfg = LehdcConfig::quick().with_epochs(8).with_grad_clip(0.01);
        let (model, _) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled()).unwrap();
        assert!(model.accuracy(train.hvs(), train.labels()) > 0.6);
    }

    #[test]
    fn ablation_helpers_zero_the_right_fields() {
        let cfg = LehdcConfig::default().without_dropout().without_weight_decay();
        assert_eq!(cfg.dropout, 0.0);
        assert_eq!(cfg.weight_decay, 0.0);
        assert!(cfg.validate().is_ok());
    }
}
