//! The binary linear layer with straight-through gradients.

use hdc::kernels::{active_tier, KernelTier};
use testkit::Rng;
use threadpool::{chunk_ranges, ThreadPool};

use crate::dropout::DropMask;
use crate::matrix::Matrix;
use crate::optim::{Adam, Optimizer};
use crate::packed::{
    fused_step_on, packed_matmul_into, packed_matmul_masked_into, packed_transpose_matmul_into,
    FusedChunk, PackedMatrix,
};

/// A fully connected layer with **binary effective weights** and **latent
/// real weights** — the single-layer BNN of the paper's Fig. 4.
///
/// - The latent weights `C_nb` accumulate small gradient steps. They are
///   stored class-major (`K×D`, row `c` = class `c`), the transpose of the
///   paper's `D×K`, so that every training buffer lines up with the packed
///   weight rows.
/// - The effective weights are `C = sgn(C_nb)` with `sgn(0) = +1`
///   (paper Eq. 8), held only as `K` packed rows of `D` bits; the forward
///   pass computes `o = x · C` on them.
/// - The backward pass uses the identity **straight-through estimator**: the
///   gradient w.r.t. `C` is applied to `C_nb` unchanged, which together with
///   Adam lets sub-unit gradients accumulate until a sign flips.
///
/// There is no activation at the output (paper Sec. 4: the non-binary
/// outputs feed softmax/argmax directly). Training runs on packed bipolar
/// batches through caller-owned buffers, as the LeHDC trainer does:
///
/// # Examples
///
/// ```
/// use binnet::{Adam, BinaryLinear, Matrix};
///
/// # fn main() -> Result<(), binnet::BinnetError> {
/// let mut layer = BinaryLinear::new(8, 3, 42);
/// let x = Matrix::from_rows(&[vec![1.0; 8]])?.pack_bipolar().expect("bipolar");
/// let mut logits = Matrix::zeros(1, 3);
/// layer.forward_packed_into(&x, &mut logits);
/// // every logit is a ±1 dot product, so it has the parity of D
/// for j in 0..3 {
///     assert_eq!(logits.get(0, j).abs() as usize % 2, 0);
/// }
///
/// // one training step: the K×D latent gradient, then the fused Adam update
/// let dlogits = Matrix::from_rows(&[vec![0.5, -0.25, -0.25]])?;
/// let mut grad = Matrix::zeros(3, 8);
/// layer.backward_packed_into(&x, None, &dlogits, &mut grad);
/// layer.apply_gradient_fused(&grad, &mut Adam::new(0.01), None);
/// assert_eq!((layer.latent().rows(), layer.latent().cols()), (3, 8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinaryLinear {
    latent: Matrix,       // K×D real-valued C_nb, row c = class c
    packed: PackedMatrix, // K×D sign bits of `latent`, kept in sync
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

    /// Creates a layer with latent weights given by `init(dim, class)`,
    /// called with `dim` outer and `class` inner — the order
    /// [`new`](Self::new) draws its RNG in.
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
        let mut weights = Matrix::zeros(d_in, k_out);
        for r in 0..d_in {
            for c in 0..k_out {
                weights.set(r, c, init(r, c));
            }
        }
        BinaryLinear {
            packed: PackedMatrix::from_sign_columns(&weights),
            latent: weights.transposed(),
            pool: ThreadPool::default(),
            rec: obs::Recorder::disabled(),
            d_in,
            k_out,
        }
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

    /// Borrows the latent real weights `C_nb`, class-major (`K×D`, row `c`
    /// = class `c`).
    #[must_use]
    pub fn latent(&self) -> &Matrix {
        &self.latent
    }

    /// Borrows the effective weights `C = sgn(C_nb)`, bit-packed: `K` rows
    /// of `D` bits, bit `d` of row `c` set when latent `(c, d)` is `>= 0.0`.
    #[must_use]
    pub fn packed_weights(&self) -> &PackedMatrix {
        &self.packed
    }

    /// Forward pass on a packed bipolar batch, `o = x · C`: exact integer
    /// logits `D − 2·popcount(x_b XOR c_k)` as `f32`, written into a
    /// caller-owned buffer reshaped to `B×K` — zero allocation once the
    /// buffer has its steady capacity.
    ///
    /// Runs on the query-blocked, kernel-tier-dispatched product
    /// ([`packed_matmul_into`](crate::packed_matmul_into)): each packed
    /// weight row streams once per block of batch rows, on the AVX2 popcount
    /// tier where available. Logits are bit-identical across tiers and block
    /// sizes, and to the dense `f32` product.
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
    /// **unscaled** integer logits `kept − 2·popcount((x_b XOR c_k) AND m)`,
    /// written into a caller-owned buffer reshaped to `B×K`. The caller
    /// applies `mask.scale()` once to the result.
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

    /// Straight-through backward pass from a packed bipolar batch: the
    /// latent-weight gradient `dlogitsᵀ · X`, class-major (`K×D`), with signs
    /// read from the packed bits and dropped dimensions (per `mask`)
    /// yielding exactly-zero gradient columns. It is written into a
    /// caller-owned buffer reshaped to `K×D` — zero allocation once the
    /// buffer has its steady capacity — and is bit-identical to the
    /// transposed dense product `Xᵀ · dlogits` on the expanded (and
    /// mask-zeroed) batch.
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
        out.reshape(self.k_out, self.d_in);
        packed_transpose_matmul_into(x, dlogits, mask, &self.pool, out)
            .expect("batch sizes of x and dlogits must match");
        self.rec.observe_since("layer/backward_ns", &t);
    }

    /// Applies a class-major (`K×D`) latent gradient through Adam and
    /// repacks the effective weights (paper: "the binary hypervectors … are
    /// updated after each iteration"), in one pool fan-out with one pass
    /// over the latents.
    ///
    /// `grad_clip` clamps each gradient entry into `[-c, c]` before the
    /// step. The result is bit-identical to clamping the whole gradient,
    /// calling [`Optimizer::step`](crate::Optimizer::step) on the latents,
    /// and packing every sign with `l >= 0.0`, at any thread count and on
    /// every kernel tier:
    ///
    /// - The flat `K·wpr` packed words (`wpr` words per row) split into one
    ///   chunk per worker. Word `i` covers dims `[w·64, min(w·64 + 64, D))`
    ///   of class row `i / wpr`, with `w = i mod wpr`, and row `c` ends where
    ///   row `c + 1` begins, so each chunk owns one contiguous range of the
    ///   latent, gradient and Adam moment buffers, and its own words.
    /// - On the AVX2 and AVX-512 tiers (chosen by
    ///   [`hdc::kernels::active_tier`], as for the other kernels) the AVX2
    ///   kernel runs Adam 8 lanes at a time with the scalar IEEE operations
    ///   in the scalar order and packs 8 bits per `movemask`; see the
    ///   `packed::avx2` module for its exactness traps.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not `K×D`, the optimizer was previously used
    /// with a different parameter length, or `grad_clip` is negative or
    /// NaN.
    pub fn apply_gradient_fused(&mut self, grad: &Matrix, opt: &mut Adam, grad_clip: Option<f32>) {
        self.apply_gradient_fused_on(active_tier(), grad, opt, grad_clip);
    }

    /// [`apply_gradient_fused`](Self::apply_gradient_fused) on `tier`,
    /// which this CPU must run.
    fn apply_gradient_fused_on(
        &mut self,
        tier: KernelTier,
        grad: &Matrix,
        opt: &mut Adam,
        grad_clip: Option<f32>,
    ) {
        let (d, k) = (self.d_in, self.k_out);
        assert_eq!(
            (grad.rows(), grad.cols()),
            (k, d),
            "gradient shape must match the K×D weights"
        );
        let t = self.rec.start();
        let wpr = self.packed.words_per_row();
        let pool = self.pool;
        // First latent coordinate of word `i` (`w·64 < D` for every word
        // `w` of a row, so no clamp to the row's end is needed).
        let coord = |i: usize| i / wpr * d + i % wpr * 64;
        let word_ranges = chunk_ranges(k * wpr, pool.threads());
        let coord_ranges: Vec<_> = word_ranges
            .iter()
            .map(|r| coord(r.start)..coord(r.end))
            .collect();
        let adam_chunks = opt
            .begin_step(d * k, &coord_ranges, grad_clip)
            .unwrap_or_else(|e| panic!("fused optimizer step: {e}"));
        let mut latent_rest = self.latent.as_mut_slice();
        let mut grad_rest = grad.as_slice();
        let mut words_rest = self.packed.words_mut();
        let mut tasks = Vec::with_capacity(word_ranges.len());
        for ((words, coords), adam) in word_ranges.into_iter().zip(&coord_ranges).zip(adam_chunks) {
            let (latent, rest) = latent_rest.split_at_mut(coords.len());
            latent_rest = rest;
            let (grad, rest) = grad_rest.split_at(coords.len());
            grad_rest = rest;
            let (packed, rest) = words_rest.split_at_mut(words.len());
            words_rest = rest;
            tasks.push(FusedChunk {
                words,
                packed,
                latent,
                grad,
                adam,
            });
        }
        pool.for_each_task(tasks, |_, chunk| fused_step_on(tier, d, wpr, chunk));
        self.rec.observe_since("layer/fused_step_ns", &t);
    }
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
    use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
    use testkit::Xoshiro256pp;

    /// The packed forward pass on a dense bipolar batch.
    fn forward(layer: &BinaryLinear, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        layer.forward_packed_into(&x.pack_bipolar().expect("bipolar batch"), &mut out);
        out
    }

    /// The effective weights as the dense `D×K` ±1 reference operand.
    fn dense_weights(layer: &BinaryLinear) -> Matrix {
        layer.packed_weights().to_bipolar_matrix().transposed()
    }

    #[test]
    fn binary_weights_are_signs_of_latent() {
        let init = |r: usize, c: usize| (r as f32 - 1.5) + 0.1 * c as f32;
        let layer = BinaryLinear::with_init(4, 2, init);
        for c in 0..2 {
            for r in 0..4 {
                // latents are stored class-major
                assert_eq!(layer.latent().get(c, r), init(r, c));
                assert_eq!(layer.packed_weights().get(c, r), init(r, c) >= 0.0);
            }
        }
    }

    #[test]
    fn sgn_zero_is_plus_one() {
        let layer = BinaryLinear::with_init(2, 2, |r, _| if r == 0 { 0.0 } else { -0.0 });
        assert_eq!(dense_weights(&layer).as_slice(), &[1.0; 4]);
    }

    #[test]
    fn forward_uses_binary_not_latent() {
        // latent 0.3 and 30.0 both binarize to +1 → identical logits
        let a = BinaryLinear::with_init(3, 1, |_, _| 0.3);
        let b = BinaryLinear::with_init(3, 1, |_, _| 30.0);
        let x = Matrix::from_rows(&[vec![1.0, -1.0, 1.0]]).unwrap();
        assert_eq!(forward(&a, &x), forward(&b, &x));
        assert_eq!(forward(&a, &x).get(0, 0), 1.0);
    }

    #[test]
    fn small_gradients_accumulate_until_sign_flip() {
        // One latent weight at +0.05; Adam moves it by about lr per step
        // whatever the gradient's size, so a run of small positive
        // gradients flips the binary weight only after several steps.
        let mut layer = BinaryLinear::with_init(1, 1, |_, _| 0.05);
        let mut opt = Adam::new(0.01);
        let grad = Matrix::from_rows(&[vec![1e-3]]).unwrap();
        assert!(layer.packed_weights().get(0, 0));
        let mut flipped_at = None;
        for step in 0..20 {
            layer.apply_gradient_fused(&grad, &mut opt, None);
            if !layer.packed_weights().get(0, 0) {
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
        let px = x.pack_bipolar().unwrap();
        let labels = [0usize, 1];
        let mut layer = BinaryLinear::new(d, 2, 5);
        let mut opt = Adam::new(0.05);
        let mut logits = Matrix::zeros(2, 2);
        let mut dlogits = Matrix::zeros(2, 2);
        let mut grad = Matrix::zeros(2, d);
        for _ in 0..50 {
            layer.forward_packed_into(&px, &mut logits);
            softmax_cross_entropy_into(&logits, &labels, &mut dlogits).unwrap();
            layer.backward_packed_into(&px, None, &dlogits, &mut grad);
            layer.apply_gradient_fused(&grad, &mut opt, None);
        }
        let logits = forward(&layer, &x);
        assert!(logits.get(0, 0) > logits.get(0, 1));
        assert!(logits.get(1, 1) > logits.get(1, 0));
    }

    #[test]
    fn packed_forward_matches_dense_product() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let layer = BinaryLinear::new(100, 3, 4).with_threads(2);
        let x = random_sign_matrix(5, 100, &mut rng);
        let dense = x.matmul(&dense_weights(&layer)).unwrap();
        assert_eq!(forward(&layer, &x), dense);
        assert_eq!(layer.threads(), 2);
    }

    #[test]
    fn backward_packed_matches_dense_backward() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let layer = BinaryLinear::new(80, 2, 1).with_threads(3);
        let x = random_sign_matrix(4, 80, &mut rng);
        let mut dlogits = Matrix::zeros(4, 2);
        dlogits.map_inplace(|_| rng.random_range(-0.5f32..0.5));
        let px = x.pack_bipolar().unwrap();
        let mut grad = Matrix::zeros(1, 1);
        layer.backward_packed_into(&px, None, &dlogits, &mut grad);
        assert_eq!(grad, x.transpose_matmul(&dlogits).unwrap().transposed());

        let mut drop = crate::dropout::Dropout::new(0.4, 9).unwrap();
        let mask = drop.sample_mask(80).unwrap();
        let mut x_ref = x.clone();
        mask.apply_to_matrix(&mut x_ref);
        layer.backward_packed_into(&px, Some(&mask), &dlogits, &mut grad);
        assert_eq!(grad, x_ref.transpose_matmul(&dlogits).unwrap().transposed());
    }

    #[test]
    fn packed_weights_track_rebinarize() {
        let mut layer = BinaryLinear::with_init(3, 2, |_, _| 0.05);
        // sgn(0.05) = +1; class 0 gets a gradient, class 1 none (its Adam
        // step is exactly 0)
        assert!(layer.packed_weights().get(0, 0));
        let grad = Matrix::from_rows(&[vec![1.0; 3], vec![0.0; 3]]).unwrap();
        layer.apply_gradient_fused(&grad, &mut Adam::new(0.1), None);
        // class 0 stepped ~0.1 below zero → packed row 0 all zeros
        assert!((0..3).all(|r| !layer.packed_weights().get(0, r)));
        assert!((0..3).all(|r| layer.packed_weights().get(1, r)));
    }

    #[test]
    fn disagreement_is_zero_for_clones() {
        let layer = BinaryLinear::new(16, 4, 9);
        let clone = layer.clone();
        assert_eq!(layer.packed_weights().count_diff(clone.packed_weights()), 0);
    }

    #[test]
    #[should_panic(expected = "d_in")]
    fn forward_rejects_wrong_width() {
        let layer = BinaryLinear::new(4, 2, 0);
        layer.forward_packed_into(&PackedMatrix::zeros(1, 5), &mut Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "gradient clip")]
    fn fused_step_refuses_a_nan_clip_on_every_tier() {
        let mut layer = BinaryLinear::new(4, 2, 0);
        layer.apply_gradient_fused(&Matrix::zeros(2, 4), &mut Adam::new(0.1), Some(f32::NAN));
    }

    /// Gradient entries that stress the float path: subnormals of both
    /// signs, `±0.0`, magnitudes large enough that some Adam moments
    /// overflow to `±∞`, and ordinary softmax-sized values.
    fn awkward_gradient(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                let sign = if rng.random::<bool>() { 1.0f32 } else { -1.0 };
                sign * match rng.random_range(0u32..5) {
                    0 => f32::from_bits(rng.random_range(1u32..0x0080_0000)), // subnormal
                    1 => 0.0,
                    2 => rng.random_range(1e36f32..3e38),
                    3 => rng.random_range(1e-38f32..1e-30),
                    _ => rng.random_range(0.0f32..1.0),
                }
            })
            .collect();
        Matrix::from_flat(rows, cols, data).unwrap()
    }

    #[test]
    fn fused_step_tiers_match_scalar_bit_for_bit() {
        // The AVX2 and AVX-512 tiers both run the AVX2 kernel; each must
        // equal the scalar step bit for bit (latents compared as `to_bits`,
        // so `+0.0` vs `-0.0` would count).
        let tiers: Vec<KernelTier> = [KernelTier::Avx2, KernelTier::Avx512]
            .into_iter()
            .filter(|tier| tier.available())
            .collect();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = Xoshiro256pp::seed_from_u64(0xF05E);
        for d in [1usize, 7, 8, 9, 63, 64, 65, 200, 257] {
            for k in [1usize, 3, 5] {
                for threads in [1, 3] {
                    for clip in [None, Some(0.05f32)] {
                        let start =
                            BinaryLinear::new(d, k, d as u64 * 31 + k as u64).with_threads(threads);
                        let opt = Adam::new(0.05).weight_decay(0.01);
                        let (mut scalar, mut scalar_opt) = (start.clone(), opt.clone());
                        let mut simd: Vec<_> = tiers
                            .iter()
                            .map(|&tier| (tier, start.clone(), opt.clone()))
                            .collect();
                        for step in 0..4 {
                            let grad = awkward_gradient(k, d, &mut rng);
                            scalar.apply_gradient_fused_on(
                                KernelTier::Scalar,
                                &grad,
                                &mut scalar_opt,
                                clip,
                            );
                            for (tier, layer, opt) in &mut simd {
                                layer.apply_gradient_fused_on(*tier, &grad, opt, clip);
                                let context = format!(
                                    "tier={} d={d} k={k} threads={threads} clip={clip:?} \
                                     step={step}",
                                    tier.name()
                                );
                                assert!(
                                    bits(layer.latent()) == bits(scalar.latent()),
                                    "latents: {context}"
                                );
                                assert!(
                                    layer.packed_weights() == scalar.packed_weights(),
                                    "packed weights: {context}"
                                );
                            }
                        }
                    }
                }
            }
        }
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
