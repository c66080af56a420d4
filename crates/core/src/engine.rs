//! The execution context of every trainer and every batch classification
//! in this crate.
//!
//! Every comparison strategy (retraining, enhanced, adaptive, multi-model,
//! non-binary) iterates over the corpus against a model that is **frozen
//! within the pass** (or, for the sequential-update strategies, needs the
//! frozen model only for its dominant classify/eval cost). That structure is
//! what this module exploits:
//!
//! - [`EpochEngine`] owns the fan-out: one query-blocked, thread-chunked
//!   classification (or full logit matrix) per pass instead of `N` serial
//!   scalar classifies. Predictions and dot products are exact integers, so
//!   results are bit-identical for every thread count, kernel tier, and
//!   query-block size. It also carries the run's [`obs::Recorder`].
//! - [`VoteLedger`] turns the QuantHD-style misclassification updates into
//!   exact integer vote counts per `(class, dimension)`: each misclassified
//!   sample contributes `±1` and `α` is constant within an iteration, so the
//!   whole pass's update is `c ← c + α·votes` applied once per dimension.
//!   This is the **reference semantics** for retraining: one f32 rounding
//!   step per dimension per iteration, rather than one per misclassified
//!   sample — see `DESIGN.md` §8 for the argument and the parity guarantees.
//! - `retrain_loop` is the one iteration loop of the retraining family
//!   (retraining, enhanced, adaptive): class sums, then per iteration the
//!   timed forward, update, re-sign of the touched rows, and eval, with the
//!   convergence stop. Each strategy supplies only its forward and update.

use hdc::kernels;
use hdc::{Accumulator, BinaryHv, Dim, RealHv};
use threadpool::ThreadPool;

use crate::baseline::accumulate_class_sums;
use crate::encoded::EncodedDataset;
use crate::error::LehdcError;
use crate::history::{EpochRecord, EpochTiming, TrainingHistory};
use crate::model::HdcModel;

/// The execution context every trainer and batch classification runs on:
/// a persistent thread pool, the query-block size of every blocked
/// fan-out, and the metrics recorder.
///
/// The block size only tiles the work; every kernel involved is exact, so
/// the engine produces identical outputs at any `(threads, block)` — the
/// strategy determinism suite pins this — and the recorder only reads the
/// wall clock. The default is one thread, the cache-sized block, and a
/// disabled recorder.
#[derive(Debug, Clone, Default)]
pub struct EpochEngine {
    pool: ThreadPool,
    /// `None` sizes the block per model via [`kernels::query_block_for`].
    block: Option<usize>,
    pub(crate) rec: obs::Recorder,
}

/// A frozen classifier an [`EpochEngine`] can run a whole corpus through.
pub trait Classifier: Sync {
    /// The query dimension the classifier expects.
    fn dim(&self) -> Dim;

    /// Writes the prediction for `queries[i]` into `out[i]` on the calling
    /// thread, tiling the scan by `block` queries. Identical to a per-query
    /// classify loop for every block size; [`EpochEngine::classify_into`]
    /// hands each pool chunk one call.
    fn classify_into(&self, queries: &[BinaryHv], out: &mut [usize], block: usize);
}

impl EpochEngine {
    /// An engine fanning out over `threads` pool workers. The query block is
    /// sized per call from the model's packed row width
    /// ([`kernels::query_block_for`]) so a block of queries stays
    /// L1-resident at any `D`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        EpochEngine {
            pool: ThreadPool::new(threads),
            ..EpochEngine::default()
        }
    }

    /// An engine with an explicit query-block size (tests use this to pin
    /// block-size invariance).
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    #[must_use]
    pub fn with_block(threads: usize, block: usize) -> Self {
        assert!(block > 0, "query block size must be non-zero");
        EpochEngine {
            block: Some(block),
            ..EpochEngine::new(threads)
        }
    }

    /// This engine recording into `rec`: trainers emit their per-iteration
    /// spans and events there, and encoding its corpus throughput.
    #[must_use]
    pub fn with_recorder(mut self, rec: obs::Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// The metrics recorder (disabled by default).
    #[must_use]
    pub fn recorder(&self) -> &obs::Recorder {
        &self.rec
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The query-block size used against `d`-dimensional models: the
    /// explicit size given to [`with_block`](Self::with_block), or the
    /// cache-sized default.
    #[must_use]
    pub fn block_for(&self, d: Dim) -> usize {
        self.block.unwrap_or_else(|| kernels::query_block_for(d.words()))
    }

    /// The underlying pool handle (cheap to copy).
    #[must_use]
    pub fn pool(&self) -> ThreadPool {
        self.pool
    }

    /// Classifies the whole corpus against a frozen model in one blocked,
    /// thread-chunked fan-out, writing `out[i]` for `queries[i]`: each pool
    /// chunk fills its own slice of `out`, so nothing is gathered or
    /// spliced. Identical bit-for-bit to a per-sample `model.classify(hv)`
    /// loop at any thread count and block.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != queries.len()` or any query dimension differs
    /// from the model's.
    pub fn classify_into<M: Classifier>(&self, model: &M, queries: &[BinaryHv], out: &mut [usize]) {
        assert_eq!(queries.len(), out.len(), "one prediction slot per query");
        check_dims(queries, model.dim());
        let block = self.block_for(model.dim());
        self.pool
            .for_each_chunk_mut(out, queries.len(), 1, |range, preds| {
                model.classify_into(&queries[range], preds, block);
            });
    }

    /// [`classify_into`](Self::classify_into) a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the model's.
    #[must_use]
    pub fn classify_epoch<M: Classifier>(&self, model: &M, queries: &[BinaryHv]) -> Vec<usize> {
        let mut preds = vec![0; queries.len()];
        self.classify_into(model, queries, &mut preds);
        preds
    }

    /// Accuracy of a frozen model over `queries`, through
    /// [`classify_epoch`](Self::classify_epoch). The correct count is an
    /// exact integer sum over exact predictions.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    #[must_use]
    pub fn accuracy<M: Classifier>(
        &self,
        model: &M,
        queries: &[BinaryHv],
        labels: &[usize],
    ) -> f64 {
        assert_eq!(queries.len(), labels.len(), "one label per query required");
        assert!(!queries.is_empty(), "empty query set has no accuracy");
        let preds = self.classify_epoch(model, queries);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / queries.len() as f64
    }

    /// The full logit matrix of a frozen model over the corpus: row `i`
    /// holds the `n_classes` exact integer dot products of `queries[i]`,
    /// row-major (`out[i·K + k]`). This is the batched forward the
    /// enhanced/adaptive strategies read their per-class similarities from.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the model's.
    #[must_use]
    pub fn similarities_epoch(&self, model: &HdcModel, queries: &[BinaryHv]) -> Vec<i64> {
        check_dims(queries, model.dim());
        let (d, k) = (model.dim().get(), model.n_classes());
        let block = self.block_for(model.dim());
        let mut logits = vec![0i64; queries.len() * k];
        self.pool
            .for_each_chunk_mut(&mut logits, queries.len(), k, |range, out| {
                kernels::dots_blocked_into(d, &queries[range], model.class_hvs(), block, out);
            });
        logits
    }

    /// Closes one strategy iteration: folds its spans into the recorder
    /// (metrics plus one `strategy_epoch` event) and appends its history
    /// record, carrying [`EpochTiming`] only when the recorder is enabled so
    /// histories stay equal across instrumented and uninstrumented runs.
    pub(crate) fn close_iteration(&self, history: &mut TrainingHistory, it: &StrategyEpoch) {
        let rec = &self.rec;
        let timing = rec.enabled().then(|| {
            let samples_per_sec = it.samples_per_sec();
            rec.observe_ns("strategy/epoch_ns", it.epoch_ns);
            rec.observe_ns("strategy/classify_ns", it.classify_ns);
            rec.observe_ns("strategy/update_ns", it.update_ns);
            rec.observe_ns("strategy/binarize_ns", it.binarize_ns);
            rec.observe_ns("strategy/eval_ns", it.eval_ns);
            rec.add("strategy/epochs", 1);
            rec.add("strategy/samples", it.samples as u64);
            rec.gauge("strategy/samples_per_sec", samples_per_sec);
            let mut fields = vec![
                ("strategy", obs::Value::Str(it.strategy)),
                ("epoch", obs::Value::U64(it.epoch as u64)),
                ("samples", obs::Value::U64(it.samples as u64)),
                ("samples_per_sec", obs::Value::F64(samples_per_sec)),
                ("classify_ns", obs::Value::U64(it.classify_ns)),
                ("update_ns", obs::Value::U64(it.update_ns)),
                ("binarize_ns", obs::Value::U64(it.binarize_ns)),
                ("eval_ns", obs::Value::U64(it.eval_ns)),
                ("epoch_ns", obs::Value::U64(it.epoch_ns)),
                ("train_accuracy", obs::Value::F64(it.train_accuracy)),
            ];
            if let Some(test_acc) = it.test_accuracy {
                fields.push(("test_accuracy", obs::Value::F64(test_acc)));
            }
            rec.emit("strategy_epoch", &fields);
            EpochTiming {
                classify_ns: it.classify_ns,
                update_ns: it.update_ns,
                binarize_ns: it.binarize_ns,
                eval_ns: it.eval_ns,
                epoch_ns: it.epoch_ns,
                samples_per_sec,
                ..EpochTiming::default()
            }
        });
        history.push(EpochRecord {
            epoch: it.epoch,
            train_accuracy: it.train_accuracy,
            test_accuracy: it.test_accuracy,
            validation_accuracy: None,
            loss: None,
            learning_rate: Some(it.learning_rate),
            timing,
        });
    }
}

/// Panics unless every query has dimension `dim`.
fn check_dims(queries: &[BinaryHv], dim: Dim) {
    if let Some(bad) = queries.iter().find(|q| q.dim() != dim) {
        panic!("query dimension must match the model: {} vs {dim}", bad.dim());
    }
}

/// Exact integer misclassification votes per `(class, dimension)`.
///
/// Within a retraining iteration the model is frozen and `α` is constant,
/// so the pass's accumulated update to class `k` at dimension `j` is
/// `α · votes[k][j]` where each misclassified sample contributes the
/// bipolar `±1` of its hypervector: `+1`-weighted into its true class,
/// `−1`-weighted into the wrongly predicted class. The ledger counts those
/// votes exactly with two bit-sliced [`Accumulator`] planes per class
/// (positive and negative contributions), so recording a miss costs ~2
/// carry-save plane passes instead of two `O(D)` f32 AXPYs.
///
/// Because every count is an exact integer, [`apply`](Self::apply) is
/// invariant to sample order, thread count, and chunking — and performs
/// exactly **one** f32 rounding per touched dimension per iteration.
#[derive(Debug, Clone)]
pub struct VoteLedger {
    pos: Vec<Accumulator>,
    neg: Vec<Accumulator>,
    dim: Dim,
}

impl VoteLedger {
    /// An empty ledger for `n_classes` classes of dimension `dim`.
    #[must_use]
    pub fn new(n_classes: usize, dim: Dim) -> Self {
        VoteLedger {
            pos: (0..n_classes).map(|_| Accumulator::new(dim)).collect(),
            neg: (0..n_classes).map(|_| Accumulator::new(dim)).collect(),
            dim,
        }
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.pos.len()
    }

    /// Whether no misclassification has been recorded since the last
    /// [`clear`](Self::clear).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos.iter().all(Accumulator::is_empty) && self.neg.iter().all(Accumulator::is_empty)
    }

    /// The classes holding at least one recorded vote this pass — exactly
    /// the classes whose non-binary hypervector [`apply`](Self::apply) will
    /// touch, and therefore the only classes whose binary rows can change
    /// when the model is re-signed afterwards.
    #[must_use]
    pub fn touched_classes(&self) -> Vec<usize> {
        (0..self.pos.len())
            .filter(|&k| !self.pos[k].is_empty() || !self.neg[k].is_empty())
            .collect()
    }

    /// Records one misclassified sample: `+1` votes toward `label`, `−1`
    /// votes toward `predicted`, per dimension in bipolar terms.
    ///
    /// # Panics
    ///
    /// Panics if either class index is out of range or the hypervector
    /// dimension differs from the ledger's.
    pub fn record(&mut self, hv: &BinaryHv, label: usize, predicted: usize) {
        self.pos[label].add(hv);
        self.neg[predicted].add(hv);
    }

    /// Writes class `k`'s per-dimension vote totals into `out`.
    ///
    /// With `P`/`N` the positive/negative sample counts and `pc`/`nc` their
    /// per-dimension one-counts, the bipolar vote at dimension `j` is
    /// `(2·pc[j] − P) − (2·nc[j] − N)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `out.len() != D`.
    pub fn votes_into(&self, k: usize, out: &mut [i32]) {
        assert_eq!(out.len(), self.dim.get(), "votes output must span all dims");
        let d = self.dim.get();
        let mut pc = vec![0u32; d];
        let mut nc = vec![0u32; d];
        self.pos[k].counts_into(&mut pc);
        self.neg[k].counts_into(&mut nc);
        let bias = self.pos[k].len() as i32 - self.neg[k].len() as i32;
        for ((v, &p), &n) in out.iter_mut().zip(&pc).zip(&nc) {
            *v = 2 * (p as i32 - n as i32) - bias;
        }
    }

    /// Applies the pass's accumulated update, `c ← c + α·votes`, to every
    /// class with recorded votes, fanned out one class per pool task.
    ///
    /// Dimensions with a zero vote total are left untouched (no `+0.0`
    /// round-trips), so the update is exactly the integer-vote reference
    /// semantics: one f32 `mul_add`-free rounding per touched dimension.
    ///
    /// # Panics
    ///
    /// Panics if `nonbinary.len()` differs from the class count or any
    /// hypervector dimension differs from the ledger's.
    pub fn apply(&self, nonbinary: &mut [RealHv], alpha: f32, pool: ThreadPool) {
        assert_eq!(
            nonbinary.len(),
            self.pos.len(),
            "one non-binary hypervector per class"
        );
        let d = self.dim.get();
        let tasks: Vec<(usize, &mut RealHv)> = nonbinary
            .iter_mut()
            .enumerate()
            .filter(|(k, _)| !self.pos[*k].is_empty() || !self.neg[*k].is_empty())
            .collect();
        pool.for_each_task(tasks, |_, (k, hv)| {
            assert_eq!(
                hv.dim(),
                self.dim,
                "class hypervector dimension must match the ledger"
            );
            let mut votes = vec![0i32; d];
            self.votes_into(k, &mut votes);
            for (c, &v) in hv.values_mut().iter_mut().zip(&votes) {
                if v != 0 {
                    *c += alpha * v as f32;
                }
            }
        });
    }

    /// Resets all vote counts for the next iteration, keeping plane
    /// capacity.
    pub fn clear(&mut self) {
        for acc in self.pos.iter_mut().chain(self.neg.iter_mut()) {
            acc.clear();
        }
    }
}

/// One comparison-strategy iteration, as [`EpochEngine::close_iteration`]
/// records it: the outcome plus the wall-clock spans the strategy loop
/// gathered (all zero when the recorder is disabled).
#[derive(Debug, Default)]
pub(crate) struct StrategyEpoch {
    pub strategy: &'static str,
    pub epoch: usize,
    pub samples: usize,
    pub train_accuracy: f64,
    pub test_accuracy: Option<f64>,
    pub learning_rate: f32,
    pub classify_ns: u64,
    pub update_ns: u64,
    pub binarize_ns: u64,
    pub eval_ns: u64,
    pub epoch_ns: u64,
}

impl StrategyEpoch {
    /// Training throughput over the iteration's working spans (classify +
    /// update + binarize, excluding evaluation), matching the LeHDC
    /// trainer's convention of `0.0` when nothing was timed.
    fn samples_per_sec(&self) -> f64 {
        let train_ns = self.classify_ns + self.update_ns + self.binarize_ns;
        if train_ns == 0 {
            0.0
        } else {
            self.samples as f64 * 1e9 / train_ns as f64
        }
    }
}

/// What a retraining-family update did to the non-binary class
/// hypervectors in one iteration.
pub(crate) struct Update {
    /// Training samples the frozen binary model classified correctly.
    pub correct: usize,
    /// Classes whose non-binary hypervector changed — the only rows the
    /// loop re-signs.
    pub touched: Vec<usize>,
    /// The learning rate logged for the iteration.
    pub learning_rate: f32,
}

/// The iteration budget and stop rule of a [`retrain_loop`] run.
pub(crate) struct Schedule {
    /// Strategy name of the `strategy_epoch` events.
    pub strategy: &'static str,
    /// Maximum number of iterations.
    pub iterations: usize,
    /// Stop once the fraction of binary class bits an iteration flipped
    /// falls below this; never on the first, boosted-rate iteration.
    pub convergence_threshold: Option<f64>,
}

/// The iteration loop shared by retraining, enhanced and adaptive: the
/// non-binary model starts at the class sums and the binary model at their
/// signs; each iteration runs the strategy's `forward` against the frozen
/// binary model, hands its output to `update` (which edits the non-binary
/// class hypervectors), re-signs exactly the touched classes, evaluates,
/// and closes the iteration on the engine.
///
/// Untouched classes keep a bit-unchanged non-binary hypervector and so an
/// unchanged sign, which makes re-signing only the touched rows equal to a
/// full rebinarize; their zero flips fold into the convergence signal.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] if a class has no training samples.
pub(crate) fn retrain_loop<T>(
    schedule: &Schedule,
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    engine: &EpochEngine,
    mut forward: impl FnMut(&HdcModel) -> T,
    mut update: impl FnMut(usize, T, &mut [RealHv]) -> Update,
) -> Result<(HdcModel, TrainingHistory), LehdcError> {
    let mut nonbinary = accumulate_class_sums(train, engine)?;
    let mut model = HdcModel::new(nonbinary.iter().map(RealHv::sign).collect())?;
    let mut history = TrainingHistory::new();
    let rec = engine.recorder();
    for epoch in 0..schedule.iterations {
        let epoch_timer = rec.start();

        let t = rec.start();
        let out = forward(&model);
        let classify_ns = t.elapsed_ns();

        let t = rec.start();
        let step = update(epoch, out, &mut nonbinary);
        let update_ns = t.elapsed_ns();

        let t = rec.start();
        let flipped: usize = step
            .touched
            .iter()
            .map(|&k| model.resign_class(k, &nonbinary[k]))
            .sum();
        let binarize_ns = t.elapsed_ns();

        let t = rec.start();
        let test_accuracy = test.map(|ts| engine.accuracy(&model, ts.hvs(), ts.labels()));
        let eval_ns = t.elapsed_ns();

        engine.close_iteration(
            &mut history,
            &StrategyEpoch {
                strategy: schedule.strategy,
                epoch,
                samples: train.len(),
                train_accuracy: step.correct as f64 / train.len() as f64,
                test_accuracy,
                learning_rate: step.learning_rate,
                classify_ns,
                update_ns,
                binarize_ns,
                eval_ns,
                epoch_ns: epoch_timer.elapsed_ns(),
            },
        );
        if let Some(threshold) = schedule.convergence_threshold {
            let flip_fraction = flipped as f64 / (train.dim().get() * train.n_classes()) as f64;
            if epoch > 0 && flip_fraction < threshold {
                break;
            }
        }
    }
    Ok((model, history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NonBinaryModel;
    use crate::multimodel::{train_multimodel, MultiModelConfig};

    fn corpus(d: Dim, n: usize, seed: u64) -> Vec<BinaryHv> {
        let mut rng = hdc::rng::rng_for(seed, 0xE9);
        (0..n).map(|_| BinaryHv::random(d, &mut rng)).collect()
    }

    /// `classify_epoch`, and `classify_into` over a `usize::MAX`-filled
    /// output, against the per-query `serial` predictions at every
    /// `(threads, block)`.
    fn assert_batch_matches_serial<M: Classifier>(
        model: &M,
        queries: &[BinaryHv],
        serial: &[usize],
    ) {
        for threads in [1, 4] {
            for block in [1, 7, 64] {
                let engine = EpochEngine::with_block(threads, block);
                let ctx = format!("threads={threads} block={block}");
                assert_eq!(engine.classify_epoch(model, queries), serial, "{ctx}");
                let mut out = vec![usize::MAX; queries.len()];
                engine.classify_into(model, queries, &mut out);
                assert_eq!(out, serial, "classify_into {ctx}");
            }
        }
    }

    #[test]
    fn classify_epoch_matches_serial_classify() {
        let d = Dim::new(517);
        let queries = corpus(d, 33, 2);

        let model = HdcModel::new(corpus(d, 5, 1)).unwrap();
        let serial: Vec<usize> = queries.iter().map(|q| model.classify(q)).collect();
        assert_batch_matches_serial(&model, &queries, &serial);

        let nonbinary = NonBinaryModel::new(
            corpus(d, 5, 3)
                .iter()
                .zip(corpus(d, 5, 4))
                .map(|(a, b)| {
                    let mut c = RealHv::from_binary(a);
                    c.add_scaled(&b, 0.5);
                    c
                })
                .collect(),
        )
        .unwrap();
        let serial: Vec<usize> = queries.iter().map(|q| nonbinary.classify(q)).collect();
        assert_batch_matches_serial(&nonbinary, &queries, &serial);

        // 4 classes × 64 models of 9 words outsize the kernel's 16 KB
        // per-query fallback, so this runs the blocked scan.
        let train = crate::test_util::multimodal_corpus(4, 6, d.get(), 40, 5);
        let config = MultiModelConfig {
            models_per_class: 64,
            iterations: 1,
            ..MultiModelConfig::default()
        };
        let (multi, _) = train_multimodel(&train, None, &config, &EpochEngine::default()).unwrap();
        let serial: Vec<usize> = queries.iter().map(|q| multi.classify(q)).collect();
        assert_batch_matches_serial(&multi, &queries, &serial);
    }

    #[test]
    fn similarities_epoch_matches_serial_similarities() {
        let d = Dim::new(300);
        let model = HdcModel::new(corpus(d, 4, 3)).unwrap();
        let queries = corpus(d, 19, 4);
        let serial: Vec<i64> = queries.iter().flat_map(|q| model.similarities(q)).collect();
        for threads in [1, 4] {
            for block in [1, 5, 64] {
                let engine = EpochEngine::with_block(threads, block);
                assert_eq!(
                    engine.similarities_epoch(&model, &queries),
                    serial,
                    "threads={threads} block={block}"
                );
            }
        }
    }

    #[test]
    fn vote_ledger_matches_sequential_reference() {
        let d = Dim::new(130);
        let samples = corpus(d, 40, 5);
        let labels: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let preds: Vec<usize> = (0..40).map(|i| (i * 7) % 3).collect();

        // Sequential i32 reference: each miss contributes ±bipolar votes.
        let mut reference = vec![vec![0i32; d.get()]; 3];
        let mut ledger = VoteLedger::new(3, d);
        for ((hv, &label), &pred) in samples.iter().zip(&labels).zip(&preds) {
            if label == pred {
                continue;
            }
            ledger.record(hv, label, pred);
            for j in 0..d.get() {
                let bipolar = i32::from(hv.bipolar(j));
                reference[label][j] += bipolar;
                reference[pred][j] -= bipolar;
            }
        }
        let mut votes = vec![0i32; d.get()];
        for k in 0..3 {
            ledger.votes_into(k, &mut votes);
            assert_eq!(votes, reference[k], "class {k}");
        }

        // apply == serial add_scaled of each miss, in exact-arithmetic
        // regimes (integer-valued f32 state keeps both paths exact).
        let mut batched: Vec<RealHv> = (0..3).map(|_| RealHv::zeros(d)).collect();
        let mut serial: Vec<RealHv> = (0..3).map(|_| RealHv::zeros(d)).collect();
        for ((hv, &label), &pred) in samples.iter().zip(&labels).zip(&preds) {
            if label != pred {
                serial[label].add_scaled(hv, 2.0);
                serial[pred].add_scaled(hv, -2.0);
            }
        }
        for threads in [1, 4] {
            ledger.apply(&mut batched, 2.0, ThreadPool::new(threads));
            assert_eq!(batched, serial, "threads={threads}");
            for hv in &mut batched {
                hv.values_mut().fill(0.0);
            }
        }

        ledger.clear();
        assert!(ledger.is_empty());
        ledger.votes_into(0, &mut votes);
        assert!(votes.iter().all(|&v| v == 0));
    }
}
