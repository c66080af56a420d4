//! The binary linear layer with straight-through gradients.

use std::ops::Range;

use testkit::Rng;
use threadpool::{chunk_ranges, ThreadPool};

use crate::dropout::DropMask;
use crate::matrix::Matrix;
use crate::optim::{ChunkedOptimizer, Optimizer, StepChunk};
use crate::packed::{
    packed_matmul, packed_matmul_into, packed_matmul_masked, packed_matmul_masked_into,
    packed_transpose_matmul, packed_transpose_matmul_into, PackedMatrix,
};

/// A fully connected layer with **binary effective weights** and **latent
/// real weights** — the single-layer BNN of the paper's Fig. 4.
///
/// - The latent weights `C_nb ∈ ℝ^{D×K}` accumulate small gradient steps.
/// - The effective weights are `C = sgn(C_nb)` with `sgn(0) = +1`
///   (paper Eq. 8); the forward pass computes `o = x · C`.
/// - The backward pass uses the identity **straight-through estimator**: the
///   gradient w.r.t. `C` is applied to `C_nb` unchanged, which together with
///   Adam lets sub-unit gradients accumulate until a sign flips.
///
/// There is no activation at the output (paper Sec. 4: the non-binary
/// outputs feed softmax/argmax directly).
///
/// # Examples
///
/// ```
/// use binnet::{BinaryLinear, Matrix};
///
/// # fn main() -> Result<(), binnet::BinnetError> {
/// let layer = BinaryLinear::new(8, 3, 42);
/// let x = Matrix::from_rows(&[vec![1.0; 8]])?;
/// let logits = layer.forward(&x);
/// assert_eq!((logits.rows(), logits.cols()), (1, 3));
/// // every logit is a ±1 dot product, so it has the parity of D
/// for j in 0..3 {
///     assert_eq!(logits.get(0, j).abs() as usize % 2, 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinaryLinear {
    latent: Matrix,       // D×K real-valued C_nb
    binary: Matrix,       // D×K entries in {-1, +1}, kept in sync with latent
    packed: PackedMatrix, // K×D bit-packed columns of `binary`, kept in sync
    pool: ThreadPool,
    rec: obs::Recorder,
    d_in: usize,
    k_out: usize,
}

impl BinaryLinear {
    /// Creates a layer with `d_in` inputs and `k_out` outputs, latent
    /// weights initialized uniformly in `[-0.1, 0.1]` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(d_in: usize, k_out: usize, seed: u64) -> Self {
        let mut rng = testkit::Xoshiro256pp::seed_from_u64(seed);
        Self::with_init(d_in, k_out, |_, _| rng.random_range(-0.1f32..0.1))
    }

    /// Creates a layer with latent weights given by `init(row, col)`.
    ///
    /// This is how LeHDC warm-starts from baseline class hypervectors: pass
    /// the bipolar values (scaled into the latent range) as the initializer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_init<F: FnMut(usize, usize) -> f32>(
        d_in: usize,
        k_out: usize,
        mut init: F,
    ) -> Self {
        let mut latent = Matrix::zeros(d_in, k_out);
        for r in 0..d_in {
            for c in 0..k_out {
                latent.set(r, c, init(r, c));
            }
        }
        let mut layer = BinaryLinear {
            binary: Matrix::zeros(d_in, k_out),
            packed: PackedMatrix::zeros(k_out, d_in),
            pool: ThreadPool::default(),
            rec: obs::Recorder::disabled(),
            latent,
            d_in,
            k_out,
        };
        layer.rebinarize();
        layer
    }

    /// Sets the thread pool used by the layer's matrix products and returns
    /// `self` (builder style). All products are bit-identical at any width.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Sets the thread pool used by the layer's matrix products.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = ThreadPool::new(threads);
    }

    /// The number of worker threads the layer fans out over.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Attaches a metrics recorder and returns `self` (builder style).
    ///
    /// An enabled recorder collects per-call latency histograms
    /// (`layer/forward_ns`, `layer/backward_ns`, `layer/fused_step_ns`) from
    /// the packed `_into` hot paths — the distribution behind the trainer's
    /// per-epoch aggregate spans. The default (disabled) recorder makes the
    /// instrumentation a dead branch: no clock reads, no locks.
    #[must_use]
    pub fn with_recorder(mut self, rec: obs::Recorder) -> Self {
        self.set_recorder(rec);
        self
    }

    /// Attaches a metrics recorder (see
    /// [`with_recorder`](Self::with_recorder)).
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.rec = rec;
    }

    /// Input width `D`.
    #[must_use]
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output width `K`.
    #[must_use]
    pub fn k_out(&self) -> usize {
        self.k_out
    }

    /// Borrows the latent real weights `C_nb` (`D×K`).
    #[must_use]
    pub fn latent(&self) -> &Matrix {
        &self.latent
    }

    /// Borrows the effective binary weights `C = sgn(C_nb)` (`D×K`,
    /// entries `±1`).
    #[must_use]
    pub fn binary(&self) -> &Matrix {
        &self.binary
    }

    /// Borrows the bit-packed effective weights: `K` packed rows of `D`
    /// bits, row `k` holding column `k` of [`BinaryLinear::binary`].
    #[must_use]
    pub fn packed_weights(&self) -> &PackedMatrix {
        &self.packed
    }

    /// Forward pass `o = x · C` with the current **binary** weights.
    ///
    /// If `x` is strictly bipolar (every entry exactly `±1.0`) the product
    /// runs on the bit-packed XNOR/popcount kernel — bit-identical to the
    /// dense product, ~64× denser. Any other input (e.g. `f32` dropout
    /// output) falls back to the dense `f32` product.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        if let Some(px) = x.pack_bipolar() {
            return self.forward_packed(&px);
        }
        x.matmul(&self.binary)
            .expect("input width must equal layer d_in")
    }

    /// Forward pass on an already-packed bipolar batch: exact integer logits
    /// `D − 2·popcount(x_b XOR c_k)` as `f32`.
    ///
    /// Runs on the query-blocked, kernel-tier-dispatched product
    /// ([`packed_matmul_into`](crate::packed_matmul_into)): each packed
    /// weight row streams once per block of batch rows, on the AVX2 popcount
    /// tier where available. Logits are bit-identical across tiers and block
    /// sizes.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`.
    #[must_use]
    pub fn forward_packed(&self, x: &PackedMatrix) -> Matrix {
        packed_matmul(x, &self.packed, &self.pool).expect("input width must equal layer d_in")
    }

    /// [`forward_packed`](Self::forward_packed) writing into a caller-owned
    /// buffer, reshaped to `B×K` — identical logits, zero allocation once
    /// the buffer has its steady capacity.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`.
    pub fn forward_packed_into(&self, x: &PackedMatrix, out: &mut Matrix) {
        let t = self.rec.start();
        out.reshape(x.rows(), self.k_out);
        packed_matmul_into(x, &self.packed, &self.pool, out)
            .expect("input width must equal layer d_in");
        self.rec.observe_since("layer/forward_ns", &t);
    }

    /// Forward pass on a packed batch under a dropout bit mask: exact
    /// **unscaled** integer logits `kept − 2·popcount((x_b XOR c_k) AND m)`.
    /// The caller applies `mask.scale()` once to the result.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in` or the mask width differs.
    #[must_use]
    pub fn forward_packed_masked(&self, x: &PackedMatrix, mask: &DropMask) -> Matrix {
        packed_matmul_masked(x, &self.packed, mask, &self.pool)
            .expect("input width must equal layer d_in")
    }

    /// [`forward_packed_masked`](Self::forward_packed_masked) writing into a
    /// caller-owned buffer, reshaped to `B×K` — identical unscaled logits,
    /// zero allocation once the buffer has its steady capacity.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in` or the mask width differs.
    pub fn forward_packed_masked_into(
        &self,
        x: &PackedMatrix,
        mask: &DropMask,
        out: &mut Matrix,
    ) {
        let t = self.rec.start();
        out.reshape(x.rows(), self.k_out);
        packed_matmul_masked_into(x, &self.packed, mask, &self.pool, out)
            .expect("input width must equal layer d_in");
        self.rec.observe_since("layer/forward_ns", &t);
    }

    /// Straight-through backward pass: returns the latent-weight gradient
    /// `Xᵀ · dlogits` (`D×K`), fanned out over the layer's thread pool.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `x` (`B×D`) and `dlogits` (`B×K`) are
    /// inconsistent with the layer.
    #[must_use]
    pub fn backward(&self, x: &Matrix, dlogits: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.d_in, "input width must equal layer d_in");
        assert_eq!(
            dlogits.cols(),
            self.k_out,
            "gradient width must equal layer k_out"
        );
        x.transpose_matmul_pooled(dlogits, &self.pool)
            .expect("batch sizes of x and dlogits must match")
    }

    /// Straight-through backward pass from a packed bipolar batch:
    /// `Xᵀ · dlogits` with signs read from the packed bits, dropped
    /// dimensions (per `mask`) yielding exactly-zero gradient rows.
    /// Bit-identical to [`BinaryLinear::backward`] on the expanded (and
    /// mask-zeroed) batch.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `x` (`B×D` packed), `mask`, and `dlogits`
    /// (`B×K`) are inconsistent with the layer.
    #[must_use]
    pub fn backward_packed(
        &self,
        x: &PackedMatrix,
        mask: Option<&DropMask>,
        dlogits: &Matrix,
    ) -> Matrix {
        assert_eq!(x.cols(), self.d_in, "input width must equal layer d_in");
        assert_eq!(
            dlogits.cols(),
            self.k_out,
            "gradient width must equal layer k_out"
        );
        packed_transpose_matmul(x, dlogits, mask, &self.pool)
            .expect("batch sizes of x and dlogits must match")
    }

    /// [`backward_packed`](Self::backward_packed) writing into a caller-owned
    /// buffer, reshaped to `D×K` — identical gradient, zero allocation once
    /// the buffer has its steady capacity (this is the ~400 KB/step
    /// allocation of the D = 10,000 trainer).
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `x` (`B×D` packed), `mask`, and `dlogits`
    /// (`B×K`) are inconsistent with the layer.
    pub fn backward_packed_into(
        &self,
        x: &PackedMatrix,
        mask: Option<&DropMask>,
        dlogits: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(x.cols(), self.d_in, "input width must equal layer d_in");
        assert_eq!(
            dlogits.cols(),
            self.k_out,
            "gradient width must equal layer k_out"
        );
        let t = self.rec.start();
        out.reshape(self.d_in, self.k_out);
        packed_transpose_matmul_into(x, dlogits, mask, &self.pool, out)
            .expect("batch sizes of x and dlogits must match");
        self.rec.observe_since("layer/backward_ns", &t);
    }

    /// Applies a gradient to the latent weights through `opt`, then
    /// re-binarizes the effective weights (paper: "the binary hypervectors
    /// … are updated after each iteration").
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape than the weights or the
    /// optimizer was previously used with a different parameter length.
    pub fn apply_gradient<O: Optimizer>(&mut self, grad: &Matrix, opt: &mut O) {
        assert_eq!(
            (grad.rows(), grad.cols()),
            (self.d_in, self.k_out),
            "gradient shape must match weights"
        );
        opt.step(self.latent.as_mut_slice(), grad.as_slice())
            .expect("optimizer state length must match weights");
        self.rebinarize();
    }

    /// Fused [`apply_gradient`](Self::apply_gradient): one pool fan-out per
    /// step runs optimizer + optional clips + sign + **incremental repack**
    /// over disjoint latent chunks — replacing the serial optimizer pass,
    /// the full-matrix `rebinarize`, and the per-step [`PackedMatrix`]
    /// allocation with a single pass over the latents.
    ///
    /// Chunks are word-aligned over the packed rows: the chunk owning word
    /// columns `[w₀, w₁)` owns coordinate rows `[w₀·64, min(w₁·64, D))` of
    /// the row-major `D×K` latent/binary/gradient buffers — a contiguous
    /// flat range — and rewrites exactly those word columns of every packed
    /// row. The per-coordinate math is identical to [`Optimizer::step`] (see
    /// [`ChunkedOptimizer`]), so the trained model stays bit-identical to
    /// the reference path at any thread count.
    ///
    /// `grad_clip` clamps each gradient entry into `[-c, c]` before the step
    /// — the same result as clamping the whole gradient buffer first.
    /// `latent_clip` clamps the updated latents into `[-c, c]` after the
    /// step — the same result as calling [`clip_latent`](Self::clip_latent)
    /// afterwards (clamping never changes a sign).
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape than the weights or the
    /// optimizer was previously used with a different parameter length.
    pub fn apply_gradient_fused<O: ChunkedOptimizer>(
        &mut self,
        grad: &Matrix,
        opt: &mut O,
        grad_clip: Option<f32>,
        latent_clip: Option<f32>,
    ) {
        assert_eq!(
            (grad.rows(), grad.cols()),
            (self.d_in, self.k_out),
            "gradient shape must match weights"
        );
        let t = self.rec.start();
        let (d, k) = (self.d_in, self.k_out);
        let wpr = self.packed.words_per_row();
        let pool = self.pool;
        let word_ranges = chunk_ranges(wpr, pool.threads());
        // Word range [w0, w1) ↔ flat coordinate range [w0·64·K, min(w1·64, D)·K):
        // contiguous and, across chunks, a partition of 0..D·K.
        let coord_ranges: Vec<Range<usize>> = word_ranges
            .iter()
            .map(|r| r.start * 64 * k..(r.end * 64).min(d) * k)
            .collect();
        let steppers = opt
            .begin_step(d * k, &coord_ranges)
            .expect("optimizer state length must match weights");
        let mut latent_rest = self.latent.as_mut_slice();
        let mut binary_rest = self.binary.as_mut_slice();
        let mut grad_rest = grad.as_slice();
        let mut tasks = Vec::with_capacity(word_ranges.len());
        for (words, (coords, stepper)) in word_ranges
            .into_iter()
            .zip(coord_ranges.iter().zip(steppers))
        {
            let len = coords.len();
            let (latent, rest) = latent_rest.split_at_mut(len);
            latent_rest = rest;
            let (binary, rest) = binary_rest.split_at_mut(len);
            binary_rest = rest;
            let (grad_part, rest) = grad_rest.split_at(len);
            grad_rest = rest;
            tasks.push(FusedChunk {
                words,
                latent,
                binary,
                grad: grad_part,
                stepper,
            });
        }
        let packed_words = SyncWordPtr(self.packed.words_mut().as_mut_ptr());
        pool.for_each_task(tasks, |_, mut t| {
            t.stepper.apply(t.latent, t.grad, grad_clip);
            if let Some(limit) = latent_clip {
                for v in t.latent.iter_mut() {
                    *v = v.clamp(-limit, limit);
                }
            }
            for (b, &l) in t.binary.iter_mut().zip(t.latent.iter()) {
                *b = if l >= 0.0 { 1.0 } else { -1.0 };
            }
            // Incremental repack: rebuild exactly this chunk's word columns
            // from 64 branchless sign tests per word. The last word of a
            // D-not-multiple-of-64 layer keeps its tail bits zero.
            let row0 = t.words.start * 64;
            for w in t.words.clone() {
                let base = w * 64;
                let n = 64.min(d - base);
                for kk in 0..k {
                    let mut word = 0u64;
                    for bit in 0..n {
                        word |= u64::from(t.latent[(base - row0 + bit) * k + kk] >= 0.0) << bit;
                    }
                    // Safety: this chunk owns word columns `t.words` of every
                    // packed row — writes of different chunks never alias —
                    // and the fan-out joins before this method returns.
                    unsafe { *packed_words.get().add(kk * wpr + w) = word };
                }
            }
        });
        self.rec.observe_since("layer/fused_step_ns", &t);
    }

    /// Clamps every latent weight into `[-limit, limit]`.
    ///
    /// Latent clipping is a common BNN trick (it keeps dead weights able to
    /// flip back); it is optional and off unless called each step.
    ///
    /// # Panics
    ///
    /// Panics if `limit <= 0`.
    pub fn clip_latent(&mut self, limit: f32) {
        assert!(limit > 0.0, "clip limit must be positive");
        self.latent.map_inplace(|v| v.clamp(-limit, limit));
        // clipping cannot change signs, so no rebinarize needed
    }

    /// Squared Frobenius norm of the latent weights — the `‖C_nb‖²` of the
    /// paper's Eq. 10, for loss reporting.
    #[must_use]
    pub fn latent_norm_sq(&self) -> f64 {
        let n = self.latent.frobenius_norm();
        n * n
    }

    /// Fraction of binary weights that differ from `other` — a convergence
    /// diagnostic ("how many bits still flip per epoch").
    ///
    /// Computed as one XOR/popcount pass over the two layers' packed weight
    /// rows, which stay in sync with the `f32` binary matrices (both are
    /// signs of the same latents), instead of scanning `2·D·K` floats.
    ///
    /// # Panics
    ///
    /// Panics if the layer shapes differ.
    #[must_use]
    pub fn binary_disagreement(&self, other: &BinaryLinear) -> f64 {
        assert_eq!(
            (self.d_in, self.k_out),
            (other.d_in, other.k_out),
            "layer shapes must match"
        );
        let diff = self.packed.count_diff(&other.packed);
        diff as f64 / (self.d_in * self.k_out) as f64
    }

    fn rebinarize(&mut self) {
        for (b, &l) in self
            .binary
            .as_mut_slice()
            .iter_mut()
            .zip(self.latent.as_slice())
        {
            *b = if l >= 0.0 { 1.0 } else { -1.0 };
        }
        self.packed = PackedMatrix::from_sign_columns(&self.latent);
    }
}

/// A raw pointer into a packed word buffer that may cross a pool fan-out.
///
/// Safety: used only by [`BinaryLinear::apply_gradient_fused`], where each
/// chunk writes a disjoint set of words and the submitting thread joins the
/// fan-out (keeping the buffer exclusively borrowed) before returning.
struct SyncWordPtr(*mut u64);

impl SyncWordPtr {
    /// Returns the wrapped pointer. Going through a method (rather than the
    /// field) makes closures capture the `Sync` wrapper, not the raw pointer.
    fn get(&self) -> *mut u64 {
        self.0
    }
}

unsafe impl Send for SyncWordPtr {}
unsafe impl Sync for SyncWordPtr {}

/// One task of [`BinaryLinear::apply_gradient_fused`]: a packed word range
/// plus the matching latent/binary/gradient sub-slices and optimizer chunk.
struct FusedChunk<'a, C> {
    words: Range<usize>,
    latent: &'a mut [f32],
    binary: &'a mut [f32],
    grad: &'a [f32],
    stepper: C,
}

/// Draws a random `±1` matrix — useful for tests and random binary inits.
#[must_use]
pub fn random_sign_matrix<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    m.map_inplace(|_| if rng.random::<bool>() { 1.0 } else { -1.0 });
    m
}

/// A fully connected layer with **real** weights — the single-layer
/// perceptron the paper's Sec. 3.1 remark equates with *non-binary* HDC
/// ("a non-binary HDC can be equivalently viewed as a simple single-layer
/// neural network").
///
/// Same forward/backward contract as [`BinaryLinear`], minus the
/// binarization: what the optimizer updates is what inference uses.
///
/// # Examples
///
/// ```
/// use binnet::{DenseLinear, Matrix};
///
/// # fn main() -> Result<(), binnet::BinnetError> {
/// let layer = DenseLinear::new(4, 2, 1);
/// let x = Matrix::from_rows(&[vec![1.0; 4]])?;
/// assert_eq!(layer.forward(&x).cols(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseLinear {
    weights: Matrix,
    d_in: usize,
    k_out: usize,
}

impl DenseLinear {
    /// Creates a layer with weights uniform in `[-0.1, 0.1]` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(d_in: usize, k_out: usize, seed: u64) -> Self {
        let mut rng = testkit::Xoshiro256pp::seed_from_u64(seed);
        Self::with_init(d_in, k_out, |_, _| rng.random_range(-0.1f32..0.1))
    }

    /// Creates a layer with weights given by `init(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_init<F: FnMut(usize, usize) -> f32>(
        d_in: usize,
        k_out: usize,
        mut init: F,
    ) -> Self {
        let mut weights = Matrix::zeros(d_in, k_out);
        for r in 0..d_in {
            for c in 0..k_out {
                weights.set(r, c, init(r, c));
            }
        }
        DenseLinear {
            weights,
            d_in,
            k_out,
        }
    }

    /// Input width `D`.
    #[must_use]
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output width `K`.
    #[must_use]
    pub fn k_out(&self) -> usize {
        self.k_out
    }

    /// Borrows the weights (`D×K`).
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Forward pass `o = x · W`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.weights)
            .expect("input width must equal layer d_in")
    }

    /// Backward pass: the weight gradient `Xᵀ · dlogits`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent with the layer.
    #[must_use]
    pub fn backward(&self, x: &Matrix, dlogits: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.d_in, "input width must equal layer d_in");
        assert_eq!(
            dlogits.cols(),
            self.k_out,
            "gradient width must equal layer k_out"
        );
        x.transpose_matmul(dlogits)
            .expect("batch sizes of x and dlogits must match")
    }

    /// Applies a gradient to the weights through `opt`.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape than the weights or the
    /// optimizer was previously used with a different parameter length.
    pub fn apply_gradient<O: Optimizer>(&mut self, grad: &Matrix, opt: &mut O) {
        assert_eq!(
            (grad.rows(), grad.cols()),
            (self.d_in, self.k_out),
            "gradient shape must match weights"
        );
        opt.step(self.weights.as_mut_slice(), grad.as_slice())
            .expect("optimizer state length must match weights");
    }

    /// Extracts column `k` of the weights — the class vector for class `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= k_out`.
    #[must_use]
    pub fn column(&self, k: usize) -> Vec<f32> {
        assert!(k < self.k_out, "class index out of range");
        (0..self.d_in).map(|r| self.weights.get(r, k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::{Adam, Sgd};
    use testkit::Xoshiro256pp;

    #[test]
    fn binary_weights_are_signs_of_latent() {
        let layer = BinaryLinear::with_init(4, 2, |r, c| (r as f32 - 1.5) + 0.1 * c as f32);
        for r in 0..4 {
            for c in 0..2 {
                let expect = if layer.latent().get(r, c) >= 0.0 {
                    1.0
                } else {
                    -1.0
                };
                assert_eq!(layer.binary().get(r, c), expect);
            }
        }
    }

    #[test]
    fn sgn_zero_is_plus_one() {
        let layer = BinaryLinear::with_init(2, 2, |_, _| 0.0);
        assert!(layer.binary().as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn forward_uses_binary_not_latent() {
        // latent 0.3 and 30.0 both binarize to +1 → identical logits
        let a = BinaryLinear::with_init(3, 1, |_, _| 0.3);
        let b = BinaryLinear::with_init(3, 1, |_, _| 30.0);
        let x = Matrix::from_rows(&[vec![1.0, -1.0, 1.0]]).unwrap();
        assert_eq!(a.forward(&x), b.forward(&x));
        assert_eq!(a.forward(&x).get(0, 0), 1.0);
    }

    #[test]
    fn small_gradients_accumulate_until_sign_flip() {
        // One latent weight at +0.05; repeated small positive gradients via
        // plain SGD should eventually flip the binary weight to -1.
        let mut layer = BinaryLinear::with_init(1, 1, |_, _| 0.05);
        let mut opt = Sgd::new(0.01);
        let grad = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(layer.binary().get(0, 0), 1.0);
        let mut flipped_at = None;
        for step in 0..20 {
            layer.apply_gradient(&grad, &mut opt);
            if layer.binary().get(0, 0) < 0.0 {
                flipped_at = Some(step);
                break;
            }
        }
        let at = flipped_at.expect("weight should flip");
        assert!(at >= 4, "flip needed several accumulated steps, got {at}");
    }

    #[test]
    fn training_separates_a_toy_problem() {
        let d = 32;
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let proto0: Vec<f32> = (0..d)
            .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let proto1: Vec<f32> = proto0.iter().map(|v| -v).collect();
        let x = Matrix::from_rows(&[proto0, proto1]).unwrap();
        let labels = [0usize, 1];
        let mut layer = BinaryLinear::new(d, 2, 5);
        let mut opt = Adam::new(0.05);
        for _ in 0..50 {
            let logits = layer.forward(&x);
            let (_, dlogits) = softmax_cross_entropy(&logits, &labels).unwrap();
            let grad = layer.backward(&x, &dlogits);
            layer.apply_gradient(&grad, &mut opt);
        }
        let logits = layer.forward(&x);
        assert!(logits.get(0, 0) > logits.get(0, 1));
        assert!(logits.get(1, 1) > logits.get(1, 0));
    }

    #[test]
    fn packed_forward_matches_dense_product() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let layer = BinaryLinear::new(100, 3, 4).with_threads(2);
        let x = random_sign_matrix(5, 100, &mut rng);
        let dense = x.matmul(layer.binary()).unwrap();
        assert_eq!(layer.forward(&x), dense);
        let px = x.pack_bipolar().unwrap();
        assert_eq!(layer.forward_packed(&px), dense);
        assert_eq!(layer.threads(), 2);
    }

    #[test]
    fn forward_falls_back_to_dense_for_non_bipolar_input() {
        // scaled dropout survivors (2.0) and zeros are not packable
        let layer = BinaryLinear::new(4, 2, 0);
        let x = Matrix::from_rows(&[vec![2.0, 0.0, -2.0, 2.0]]).unwrap();
        assert_eq!(layer.forward(&x), x.matmul(layer.binary()).unwrap());
    }

    #[test]
    fn backward_packed_matches_dense_backward() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let layer = BinaryLinear::new(80, 2, 1).with_threads(3);
        let x = random_sign_matrix(4, 80, &mut rng);
        let mut dlogits = Matrix::zeros(4, 2);
        dlogits.map_inplace(|_| rng.random_range(-0.5f32..0.5));
        let dense = layer.backward(&x, &dlogits);
        let px = x.pack_bipolar().unwrap();
        assert_eq!(layer.backward_packed(&px, None, &dlogits), dense);

        let mut drop = crate::dropout::Dropout::new(0.4, 9).unwrap();
        let mask = drop.sample_mask(80).unwrap();
        let mut x_ref = x.clone();
        mask.apply_to_matrix(&mut x_ref);
        assert_eq!(
            layer.backward_packed(&px, Some(&mask), &dlogits),
            layer.backward(&x_ref, &dlogits)
        );
    }

    #[test]
    fn packed_weights_track_rebinarize() {
        let mut layer = BinaryLinear::with_init(3, 2, |_, _| 0.05);
        assert!(layer.packed_weights().get(0, 0)); // sgn(0.05) = +1
        let grad = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let mut opt = Sgd::new(0.1);
        layer.apply_gradient(&grad, &mut opt);
        // column 0 flipped negative → packed row 0 all zeros
        assert!(!layer.packed_weights().get(0, 0));
        assert!(layer.packed_weights().get(1, 0)); // column 1 untouched
    }

    #[test]
    fn clip_latent_bounds_weights_without_changing_signs() {
        let mut layer = BinaryLinear::with_init(2, 2, |r, c| {
            if (r + c) % 2 == 0 {
                5.0
            } else {
                -5.0
            }
        });
        let before = layer.binary().clone();
        layer.clip_latent(1.0);
        assert_eq!(layer.binary(), &before);
        assert!(layer.latent().as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn disagreement_is_zero_for_clones() {
        let layer = BinaryLinear::new(16, 4, 9);
        assert_eq!(layer.binary_disagreement(&layer.clone()), 0.0);
    }

    #[test]
    fn latent_norm_sq_matches_manual_sum() {
        let layer = BinaryLinear::with_init(2, 2, |_, _| 2.0);
        assert!((layer.latent_norm_sq() - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "d_in")]
    fn forward_rejects_wrong_width() {
        let layer = BinaryLinear::new(4, 2, 0);
        let x = Matrix::zeros(1, 5);
        let _ = layer.forward(&x);
    }

    #[test]
    fn dense_layer_trains_past_binary_precision() {
        // A dense layer can express graded weights a binary layer cannot:
        // fit a target where one input dimension matters twice as much.
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let labels = [0usize, 1, 0]; // dim 0 outweighs dim 1
        let mut layer = DenseLinear::new(2, 2, 3);
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            let logits = layer.forward(&x);
            let (_, dlogits) = softmax_cross_entropy(&logits, &labels).unwrap();
            let grad = layer.backward(&x, &dlogits);
            layer.apply_gradient(&grad, &mut opt);
        }
        let logits = layer.forward(&x);
        for (r, &y) in labels.iter().enumerate() {
            let pred = if logits.get(r, 0) > logits.get(r, 1) { 0 } else { 1 };
            assert_eq!(pred, y, "row {r}");
        }
    }

    #[test]
    fn dense_column_returns_weights_verbatim() {
        let layer = DenseLinear::with_init(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(layer.column(1), vec![1.0, 3.0, 5.0]);
        assert_eq!(layer.d_in(), 3);
        assert_eq!(layer.k_out(), 2);
    }
}
