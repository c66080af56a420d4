//! Hypervector encoders: record-based (paper Eq. 1) and N-gram.

use std::cell::Cell;

use testkit::Xoshiro256pp;
use threadpool::ThreadPool;

use crate::accum::Accumulator;
use crate::bitvec::BinaryHv;
use crate::dim::Dim;
use crate::error::HdcError;
use crate::item_memory::{LevelMemory, PositionMemory};
use crate::quantize::Quantizer;
use crate::rng::splitmix64;

/// A feature-vector-to-hypervector encoder, `En(x): ℝᴺ ↦ {-1, +1}^D`.
///
/// LeHDC deliberately leaves the encoder untouched (paper Sec. 2.1: "LeHDC
/// does not modify the encoding process, and hence can work with any
/// encoders"), so every training strategy in this workspace is generic over
/// this trait.
pub trait Encode: Sync {
    /// The hypervector dimensionality `D`.
    fn dim(&self) -> Dim;

    /// The number of input features `N` a sample must have.
    fn n_features(&self) -> usize;

    /// Encodes one sample into a caller-owned hypervector, bundling in
    /// `scratch`'s accumulator — the allocation-free per-sample path every
    /// other encode goes through.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureCountMismatch`] if
    /// `features.len() != self.n_features()`.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` or `out` was sized for a different dimension.
    fn encode_into(
        &self,
        features: &[f32],
        scratch: &mut EncodeScratch,
        out: &mut BinaryHv,
    ) -> Result<(), HdcError>;

    /// Encodes one sample into a fresh hypervector.
    ///
    /// # Errors
    ///
    /// As [`encode_into`](Encode::encode_into).
    fn encode(&self, features: &[f32]) -> Result<BinaryHv, HdcError> {
        let mut out = BinaryHv::zeros(self.dim());
        self.encode_into(features, &mut EncodeScratch::new(self.dim()), &mut out)?;
        Ok(out)
    }

    /// The pooled batch encode: `out[i]` becomes the encoding of row `i` of
    /// the flat row-major `samples`, one contiguous chunk of rows per pool
    /// worker, identical to a per-row [`encode_into`](Encode::encode_into)
    /// loop at any width. Each thread bundles in its own [`EncodeScratch`],
    /// allocated by that thread and kept across calls, so repeated batches
    /// allocate nothing and no two workers write near each other's counters.
    ///
    /// # Errors
    ///
    /// Returns the first error [`encode_into`](Encode::encode_into) reports,
    /// in chunk order.
    ///
    /// # Panics
    ///
    /// Panics unless `samples.len() == out.len() * self.n_features()`, or if
    /// an output hypervector has another dimension.
    fn encode_batch_into(
        &self,
        samples: &[f32],
        out: &mut [BinaryHv],
        pool: ThreadPool,
    ) -> Result<(), HdcError> {
        let (n, dim) = (self.n_features(), self.dim());
        assert_eq!(
            samples.len(),
            out.len() * n,
            "one output hypervector per sample row"
        );
        let ranges = threadpool::chunk_ranges(out.len(), pool.threads());
        let mut results = vec![Ok(()); ranges.len()];
        let mut tasks = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for (range, result) in ranges.iter().zip(&mut results) {
            let (outs, tail) = rest.split_at_mut(range.len());
            rest = tail;
            tasks.push((&samples[range.start * n..range.end * n], outs, result));
        }
        pool.for_each_task(tasks, |_, (rows, outs, result)| {
            let mut scratch = THREAD_SCRATCH
                .take()
                .filter(|s| s.dim() == dim)
                .unwrap_or_else(|| EncodeScratch::new(dim));
            *result = rows
                .chunks(n)
                .zip(outs)
                .try_for_each(|(row, hv)| self.encode_into(row, &mut scratch, hv));
            THREAD_SCRATCH.set(Some(scratch));
        });
        results.into_iter().collect()
    }

    /// Encodes a flat row-major corpus (`samples.len()` must be a multiple of
    /// `n_features()`) into fresh hypervectors on `threads` pool workers:
    /// [`encode_batch_into`](Encode::encode_batch_into) into a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureCountMismatch`] if the corpus length is not
    /// a multiple of the feature count.
    fn encode_all(&self, samples: &[f32], threads: usize) -> Result<Vec<BinaryHv>, HdcError> {
        let n = self.n_features();
        if !samples.len().is_multiple_of(n) {
            return Err(HdcError::FeatureCountMismatch {
                expected: n,
                actual: samples.len() % n,
            });
        }
        let mut all = vec![BinaryHv::zeros(self.dim()); samples.len() / n];
        self.encode_batch_into(samples, &mut all, ThreadPool::new(threads))?;
        Ok(all)
    }

    /// [`encode_all`](Encode::encode_all) with corpus throughput metrics:
    /// records an `encode/corpus_ns` span and an `encode/samples_per_sec`
    /// gauge, and emits one `encode` event per call. A disabled recorder
    /// makes this exactly `encode_all` (no clock reads), and the encoding
    /// itself is untouched either way — instrumentation reads no RNG.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureCountMismatch`] if the corpus length is not
    /// a multiple of the feature count.
    fn encode_all_recorded(
        &self,
        samples: &[f32],
        threads: usize,
        rec: &obs::Recorder,
    ) -> Result<Vec<BinaryHv>, HdcError> {
        let t = rec.start();
        let all = self.encode_all(samples, threads)?;
        if rec.enabled() {
            let ns = rec.observe_since("encode/corpus_ns", &t);
            let n_samples = all.len() as u64;
            rec.add("encode/samples", n_samples);
            let per_sec = if ns == 0 {
                f64::INFINITY
            } else {
                n_samples as f64 * 1e9 / ns as f64
            };
            rec.gauge("encode/samples_per_sec", per_sec);
            rec.emit(
                "encode",
                &[
                    ("samples", obs::Value::U64(n_samples)),
                    ("dim", obs::Value::U64(self.dim().get() as u64)),
                    ("threads", obs::Value::U64(threads as u64)),
                    ("wall_ns", obs::Value::U64(ns)),
                    ("samples_per_sec", obs::Value::F64(per_sec)),
                ],
            );
        }
        Ok(all)
    }
}

thread_local! {
    /// The scratch [`Encode::encode_batch_into`] bundles in on this thread.
    static THREAD_SCRATCH: Cell<Option<EncodeScratch>> = const { Cell::new(None) };
}

/// Reusable working memory for [`Encode::encode_into`].
///
/// Holds the bundle accumulator (bit-sliced counter planes plus carry
/// scratch) across encode calls, so a loop over many samples performs no
/// per-sample heap allocation beyond each output hypervector — the encoder
/// analogue of the trainer's `TrainScratch`.
#[derive(Debug, Clone)]
pub struct EncodeScratch {
    acc: Accumulator,
}

impl EncodeScratch {
    /// Creates scratch for encoders of dimensionality `dim`.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        EncodeScratch {
            acc: Accumulator::new(dim),
        }
    }

    /// The dimensionality this scratch was sized for.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.acc.dim()
    }
}

/// The record-based encoder of the paper's Eq. 1:
/// `En(x) = sgn( Σᵢ 𝓕ᵢ ∘ 𝓥_{fᵢ} )`.
///
/// Each feature position has an orthogonal random hypervector
/// ([`PositionMemory`]); each quantized feature value selects a correlated
/// level hypervector ([`LevelMemory`]); the bound pairs are bundled and
/// majority-thresholded, with `sgn(0)` ties broken pseudo-randomly (seeded by
/// the encoder seed and the sample's level pattern, so encoding is a pure
/// function of its inputs).
///
/// # Examples
///
/// ```
/// use hdc::{Dim, Encode, RecordEncoder};
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let enc = RecordEncoder::builder(Dim::new(1024), 8)
///     .levels(16)
///     .value_range(0.0, 1.0)
///     .seed(5)
///     .build()?;
/// let hv = enc.encode(&[0.1, 0.9, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4])?;
/// assert_eq!(hv.dim(), Dim::new(1024));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    positions: PositionMemory,
    levels: LevelMemory,
    quantizer: Quantizer,
    seed: u64,
}

impl RecordEncoder {
    /// Starts building a record encoder for `n_features` inputs at dimension
    /// `dim`.
    #[must_use]
    pub fn builder(dim: Dim, n_features: usize) -> RecordEncoderBuilder {
        RecordEncoderBuilder {
            dim,
            n_features,
            n_levels: 32,
            min: 0.0,
            max: 1.0,
            seed: 0,
        }
    }

    /// The position item memory `𝓕`.
    #[must_use]
    pub fn positions(&self) -> &PositionMemory {
        &self.positions
    }

    /// The level item memory `𝓥`.
    #[must_use]
    pub fn levels(&self) -> &LevelMemory {
        &self.levels
    }

    /// The value quantizer.
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The seed the item memories were generated from. Together with
    /// [`dim`](Encode::dim), [`n_features`](Encode::n_features),
    /// [`levels`](Self::levels), and the quantizer range, this fully
    /// determines the encoder — persisting these five values re-creates it
    /// exactly.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Encode for RecordEncoder {
    fn dim(&self) -> Dim {
        self.positions.dim()
    }

    fn n_features(&self) -> usize {
        self.positions.n_features()
    }

    /// One pass over the features chains the tie-break content hash and
    /// collects the position∘level pairs on the stack, a group of
    /// [`Accumulator::GROUP`] at a time; each group goes into the bit-sliced
    /// accumulator with the bind fused into one carry-save tree
    /// ([`Accumulator::add_bound_many`]), so no intermediate hypervector is
    /// materialized. The majority threshold then writes directly into `out`
    /// ([`Accumulator::threshold_into`]).
    fn encode_into(
        &self,
        features: &[f32],
        scratch: &mut EncodeScratch,
        out: &mut BinaryHv,
    ) -> Result<(), HdcError> {
        let n = self.n_features();
        if features.len() != n {
            return Err(HdcError::FeatureCountMismatch {
                expected: n,
                actual: features.len(),
            });
        }
        assert_eq!(
            scratch.dim(),
            self.dim(),
            "encode scratch must match the encoder dimension"
        );
        let acc = &mut scratch.acc;
        acc.clear();
        let mut content_hash = self.seed;
        let mut pairs: [(&[u64], &[u64]); Accumulator::GROUP] = [(&[], &[]); Accumulator::GROUP];
        for (g, group) in features.chunks(Accumulator::GROUP).enumerate() {
            for (j, &value) in group.iter().enumerate() {
                let i = g * Accumulator::GROUP + j;
                let level = self.quantizer.level(value);
                content_hash = splitmix64(content_hash ^ (level as u64).wrapping_mul(i as u64 + 1));
                pairs[j] = (
                    self.positions.hv(i).as_words(),
                    self.levels.hv(level).as_words(),
                );
            }
            acc.add_bound_many(&pairs[..group.len()]);
        }
        let mut tie_rng = Xoshiro256pp::seed_from_u64(content_hash);
        acc.threshold_into(&mut tie_rng, out);
        Ok(())
    }
}

/// Builder for [`RecordEncoder`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone)]
pub struct RecordEncoderBuilder {
    dim: Dim,
    n_features: usize,
    n_levels: usize,
    min: f32,
    max: f32,
    seed: u64,
}

impl RecordEncoderBuilder {
    /// Sets the number of quantization levels `Q` (default 32).
    #[must_use]
    pub fn levels(mut self, n_levels: usize) -> Self {
        self.n_levels = n_levels;
        self
    }

    /// Sets the expected feature value range (default `[0, 1]`); values
    /// outside it are clamped.
    #[must_use]
    pub fn value_range(mut self, min: f32, max: f32) -> Self {
        self.min = min;
        self.max = max;
        self
    }

    /// Sets the RNG seed for the item memories (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the encoder, generating both item memories.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if the quantizer range or level
    /// count is invalid, or the dimension is too small for the requested
    /// level count.
    pub fn build(self) -> Result<RecordEncoder, HdcError> {
        if self.n_features == 0 {
            return Err(HdcError::InvalidConfig(
                "encoder needs at least one feature".into(),
            ));
        }
        let quantizer = Quantizer::new(self.min, self.max, self.n_levels)?;
        let positions = PositionMemory::new(self.dim, self.n_features, self.seed);
        let levels = LevelMemory::new(self.dim, self.n_levels, self.seed)?;
        Ok(RecordEncoder {
            positions,
            levels,
            quantizer,
            seed: self.seed,
        })
    }
}

/// An N-gram encoder: binds rotated level hypervectors of `n` consecutive
/// features and bundles the windows (paper Sec. 2.1 mentions this as the
/// main alternative to record-based encoding).
///
/// `Gᵢ = ρ^{n-1}(V_{f_i}) ∘ ρ^{n-2}(V_{f_{i+1}}) ∘ … ∘ V_{f_{i+n-1}}` and
/// `En(x) = sgn(Σᵢ Gᵢ)`.
///
/// # Examples
///
/// ```
/// use hdc::{Dim, Encode, NgramEncoder};
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let enc = NgramEncoder::new(Dim::new(1024), 8, 3, 16, (0.0, 1.0), 5)?;
/// let hv = enc.encode(&[0.1, 0.9, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4])?;
/// assert_eq!(hv.dim(), Dim::new(1024));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NgramEncoder {
    levels: LevelMemory,
    /// Every rotation a window can need, precomputed at construction:
    /// `rotated[r · Q + q] = ρʳ(V_q)` for `r ∈ 0..n`. Trades `n·Q·D/8`
    /// bytes for windows that never rotate in the encode loop.
    rotated: Vec<BinaryHv>,
    quantizer: Quantizer,
    n_features: usize,
    n: usize,
    seed: u64,
}

impl NgramEncoder {
    /// Creates an N-gram encoder.
    ///
    /// `n` is the window length; `n_levels` and `value_range` configure the
    /// level memory and quantizer as for [`RecordEncoder`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `n == 0`, if
    /// `n > n_features`, or if the level memory / quantizer configuration is
    /// invalid.
    pub fn new(
        dim: Dim,
        n_features: usize,
        n: usize,
        n_levels: usize,
        value_range: (f32, f32),
        seed: u64,
    ) -> Result<Self, HdcError> {
        if n == 0 || n > n_features {
            return Err(HdcError::InvalidConfig(format!(
                "n-gram window {n} must be in 1..={n_features}"
            )));
        }
        let quantizer = Quantizer::new(value_range.0, value_range.1, n_levels)?;
        let levels = LevelMemory::new(dim, n_levels, seed)?;
        let rotated = (0..n)
            .flat_map(|r| (0..n_levels).map(|q| levels.hv(q).rotated(r)).collect::<Vec<_>>())
            .collect();
        Ok(NgramEncoder {
            levels,
            rotated,
            quantizer,
            n_features,
            n,
            seed,
        })
    }

    /// The window length `n`.
    #[must_use]
    pub fn window(&self) -> usize {
        self.n
    }

    /// `ρʳ(V_level)` from the precomputed rotation table.
    fn rot(&self, r: usize, level: usize) -> &BinaryHv {
        &self.rotated[r * self.levels.n_levels() + level]
    }
}

impl Encode for NgramEncoder {
    fn dim(&self) -> Dim {
        self.levels.dim()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn encode_into(
        &self,
        features: &[f32],
        scratch: &mut EncodeScratch,
        out: &mut BinaryHv,
    ) -> Result<(), HdcError> {
        if features.len() != self.n_features {
            return Err(HdcError::FeatureCountMismatch {
                expected: self.n_features,
                actual: features.len(),
            });
        }
        let levels: Vec<usize> = features.iter().map(|&v| self.quantizer.level(v)).collect();
        let mut content_hash = self.seed;
        for (i, &l) in levels.iter().enumerate() {
            content_hash = splitmix64(content_hash ^ (l as u64).wrapping_mul(i as u64 + 1));
        }
        // All rotations come from the precomputed table, and the window's
        // final bind is fused into the bundle add, so the loop performs no
        // rotation work and materializes no per-window hypervector. Binding
        // (XNOR) is associative and commutative, so folding the last factor
        // into `add_bound` is bit-identical to binding the full gram first.
        let acc = &mut scratch.acc;
        acc.clear();
        if self.n == 1 {
            for &l in &levels {
                acc.add(self.rot(0, l));
            }
        } else {
            let mut gram = BinaryHv::zeros(self.dim());
            for window in levels.windows(self.n) {
                gram.clone_from(self.rot(self.n - 1, window[0]));
                for (j, &l) in window.iter().enumerate().take(self.n - 1).skip(1) {
                    gram.bind_assign(self.rot(self.n - 1 - j, l));
                }
                acc.add_bound(gram.as_words(), self.rot(0, window[self.n - 1]).as_words());
            }
        }
        let mut tie_rng = Xoshiro256pp::seed_from_u64(content_hash);
        acc.threshold_into(&mut tie_rng, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::Rng;

    fn sample(n: usize, phase: f32) -> Vec<f32> {
        (0..n)
            .map(|i| 0.5 + 0.5 * ((i as f32 * 0.7 + phase).sin()))
            .collect()
    }

    fn encoder(dim: usize, n: usize) -> RecordEncoder {
        RecordEncoder::builder(Dim::new(dim), n)
            .levels(16)
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = encoder(1024, 10);
        let x = sample(10, 0.0);
        assert_eq!(enc.encode(&x).unwrap(), enc.encode(&x).unwrap());
    }

    #[test]
    fn encode_rejects_wrong_feature_count() {
        let enc = encoder(256, 10);
        let err = enc.encode(&[0.0; 9]).unwrap_err();
        assert_eq!(
            err,
            HdcError::FeatureCountMismatch {
                expected: 10,
                actual: 9
            }
        );
    }

    #[test]
    fn similar_inputs_encode_to_similar_hypervectors() {
        let enc = encoder(4096, 32);
        let a = sample(32, 0.0);
        let mut b = a.clone();
        b[0] += 0.02;
        let c = sample(32, 2.0);
        let (ha, hb, hc) = (
            enc.encode(&a).unwrap(),
            enc.encode(&b).unwrap(),
            enc.encode(&c).unwrap(),
        );
        let near = ha.normalized_hamming(&hb);
        let far = ha.normalized_hamming(&hc);
        assert!(near < far, "near {near} should be < far {far}");
        assert!(near < 0.15, "tiny perturbation moved encoding by {near}");
    }

    #[test]
    fn unrelated_inputs_are_quasi_orthogonal() {
        let enc = encoder(8192, 16);
        let mut rng = crate::rng::rng_for(1, 1);
        let a: Vec<f32> = (0..16).map(|_| rng.random::<f32>()).collect();
        let b: Vec<f32> = (0..16).map(|_| rng.random::<f32>()).collect();
        let h = enc
            .encode(&a)
            .unwrap()
            .normalized_hamming(&enc.encode(&b).unwrap());
        // The correlated level memory leaves residual similarity between
        // unrelated inputs, but they must sit far from both extremes.
        assert!(
            (0.15..=0.85).contains(&h),
            "unrelated encodings should be well separated, got {h}"
        );
    }

    #[test]
    fn encode_all_matches_sequential_and_is_parallel_safe() {
        let enc = encoder(512, 6);
        let rows: Vec<Vec<f32>> = (0..13).map(|i| sample(6, i as f32)).collect();
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let seq: Vec<BinaryHv> = rows.iter().map(|r| enc.encode(r).unwrap()).collect();
        for threads in [1, 2, 4, 8] {
            let par = enc.encode_all(&flat, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn encode_all_rejects_ragged_corpus() {
        let enc = encoder(128, 4);
        assert!(enc.encode_all(&[0.0; 7], 2).is_err());
        assert_eq!(enc.encode_all(&[], 2).unwrap().len(), 0);
    }

    #[test]
    fn builder_validates() {
        assert!(RecordEncoder::builder(Dim::new(64), 0).build().is_err());
        assert!(RecordEncoder::builder(Dim::new(64), 4)
            .levels(1)
            .build()
            .is_err());
        assert!(RecordEncoder::builder(Dim::new(64), 4)
            .value_range(1.0, 0.0)
            .build()
            .is_err());
    }

    #[test]
    fn ngram_encoder_basics() {
        let enc = NgramEncoder::new(Dim::new(1024), 12, 3, 8, (0.0, 1.0), 7).unwrap();
        assert_eq!(enc.window(), 3);
        let x = sample(12, 0.3);
        let h1 = enc.encode(&x).unwrap();
        assert_eq!(h1, enc.encode(&x).unwrap(), "deterministic");
        assert!(enc.encode(&[0.0; 5]).is_err());
        // sequence order matters to an n-gram encoder
        let mut rev = x.clone();
        rev.reverse();
        let h2 = enc.encode(&rev).unwrap();
        assert_ne!(h1, h2);
    }

    #[test]
    fn ngram_rejects_bad_window() {
        assert!(NgramEncoder::new(Dim::new(256), 4, 0, 8, (0.0, 1.0), 0).is_err());
        assert!(NgramEncoder::new(Dim::new(256), 4, 5, 8, (0.0, 1.0), 0).is_err());
    }

    #[test]
    fn different_seeds_give_different_codebooks() {
        let a = encoder(512, 8);
        let b = RecordEncoder::builder(Dim::new(512), 8)
            .levels(16)
            .seed(43)
            .build()
            .unwrap();
        let x = sample(8, 0.0);
        assert_ne!(a.encode(&x).unwrap(), b.encode(&x).unwrap());
    }
}
