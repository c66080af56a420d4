//! Bit-packed matrices and exact XNOR/popcount matrix products.
//!
//! The LeHDC forward pass multiplies a bipolar batch `X ∈ {−1,+1}^{B×D}`
//! with bipolar weights `C ∈ {−1,+1}^{D×K}`. Stored as `f32` that costs
//! 32 bits per ±1 and a fused multiply-add per term; packed into `u64`
//! words it costs 1 bit per entry and one `XOR` + `popcount` per 64 terms:
//!
//! ```text
//! (X·C)[b][k] = D − 2·popcount(x_b XOR c_k)
//! ```
//!
//! where `x_b` is row `b` of `X` and `c_k` is **column** `k` of `C`, both
//! packed with the [`BinaryHv`] convention (bit `1` ≡ `+1`). A [`PackedMatrix`]
//! therefore stores the operand whose *rows* enter the dot products: batches
//! pack row-by-row, and the weights are `K` packed class rows. The layer
//! keeps its latent weights class-major (`K×D`), so its fused optimizer step
//! rebuilds each weight word from 64 adjacent latents of one class row;
//! [`PackedMatrix::from_sign_columns`] packs the same rows from the paper's
//! `D×K` orientation.
//!
//! # Exactness
//!
//! Every product here is **bit-identical** to the dense `f32` reference in
//! [`Matrix::matmul`]/[`Matrix::transpose_matmul`], not merely close:
//!
//! - Forward products are sums of ±1·±1 terms, so each result is an integer
//!   of magnitude ≤ `D`. Integers of magnitude < 2²⁴ are exactly
//!   representable in `f32`, and the `f32` reference accumulates those same
//!   integers without ever rounding (each partial sum is also an integer
//!   ≤ `D`), independent of accumulation order. Dropout masks only shrink
//!   the magnitude.
//! - The gradient product writes `Gᵀ·X` (`K×D`, class-major), the transpose
//!   of the dense `Xᵀ·G`, as a sum of `±g` terms per element. Multiplying a
//!   float by ±1.0 is exact, and `o −= g` is IEEE-identical to
//!   `o += (−1.0)·g`, so the packed path reproduces the reference **as long
//!   as the per-element accumulation order matches**: both run over the
//!   batch index in ascending order ([`packed_transpose_matmul`] chunks
//!   threads over *output dims*, never over the summed batch dimension).
//! - The gradient product's vector bodies keep that order as well. They
//!   put adjacent output *dims* in the lanes of a register (8 per `ymm` on
//!   the AVX2 tier, 16 per `zmm` on the AVX-512 tier) and add
//!   `broadcast(g[b][k])`, sign-flipped where the input bit is 0, for `b`
//!   ascending, so each lane runs the scalar computation of its own output
//!   element: the same `+0.0` start and the same order. Dropout is applied
//!   once, at the store, and a dropped dim is `+0.0` on every tier.
//! - The vector bodies add only the **nonzero** terms: entries of `G` that
//!   are exactly `±0.0` are skipped (and a few are added, as the partner of
//!   a nonzero entry in a class-pair term). The scalar reference adds every
//!   term. This cannot change a bit, under round-to-nearest:
//!   - every output starts at `+0.0` and adds its terms in ascending `b`;
//!   - a sum that starts at `+0.0` is never `−0.0`: `x + y` is `−0.0` only
//!     when both `x` and `y` are `−0.0`, and an exact cancellation gives
//!     `+0.0`;
//!   - `x + (±0.0)` is `x`, bit for bit, for every `x` other than `−0.0`
//!     (NaN included: a NaN sum is already quiet and passes through).
//!
//!   So the running sum with the `±0.0` terms equals the one without them
//!   after every step, and the three tiers are bit-identical by
//!   construction, with no tolerance. "Nonzero" means
//!   `g.to_bits() << 1 != 0`, so subnormals, `±∞` and NaN are all added.
//!
//! The parity tests in `tests/packed_parity.rs` enforce exact `==` on the
//! resulting matrices across shapes, masks, and thread counts, and diff the
//! gradient product on the AVX2 tier (the 8-lane body) and the AVX-512 tier
//! (the 16-lane body) against the scalar one bit for bit, on awkward
//! gradients and on softmax-like ones that are mostly `±0.0`;
//! `layer::tests` does the same for the fused optimizer step.
//!
//! [`BinaryHv`]: hdc::BinaryHv

use std::ops::Range;

use hdc::kernels::{active_tier, dot_words, masked_dot_words, KernelTier, QUERY_BLOCK};
use threadpool::{chunk_ranges, ThreadPool};

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

use crate::dropout::DropMask;
use crate::error::BinnetError;
use crate::matrix::Matrix;
use crate::optim::{AdamChunk, AdamStep};

/// A bit-packed binary matrix: `rows` rows of `cols` bits each, every row
/// padded to whole `u64` words with zero tail bits (the [`BinaryHv`]
/// convention: bit `1` ≡ bipolar `+1`, bit `0` ≡ `−1`).
///
/// # Examples
///
/// ```
/// use binnet::{Matrix, PackedMatrix, packed_matmul};
/// use threadpool::ThreadPool;
///
/// # fn main() -> Result<(), binnet::BinnetError> {
/// let x = Matrix::from_rows(&[vec![1.0, -1.0, 1.0]])?;
/// let w = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]])?; // D×K
/// let px = x.pack_bipolar().expect("x is bipolar");
/// let pw = PackedMatrix::from_sign_columns(&w);
/// let y = packed_matmul(&px, &pw, &ThreadPool::new(1))?;
/// assert_eq!(y.get(0, 0), 1.0); // 1 − 1 + 1
/// # Ok(())
/// # }
/// ```
///
/// [`BinaryHv`]: hdc::BinaryHv
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl PackedMatrix {
    /// Creates an empty `0 × 0` placeholder, the starting state for a scratch
    /// buffer later filled by
    /// [`refill_word_rows_pooled`](Self::refill_word_rows_pooled).
    #[must_use]
    pub fn empty() -> Self {
        PackedMatrix {
            rows: 0,
            cols: 0,
            words_per_row: 0,
            words: Vec::new(),
        }
    }

    /// Creates a `rows × cols` packed matrix of zero bits (all `−1`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let words_per_row = cols.div_ceil(64);
        PackedMatrix {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// Creates a packed matrix from a bit predicate `f(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> bool>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut out = PackedMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    out.words[r * out.words_per_row + c / 64] |= 1 << (c % 64);
                }
            }
        }
        out
    }

    /// Packs a strictly bipolar `f32` matrix row-by-row (`+1.0` → bit `1`,
    /// `−1.0` → bit `0`), or `None` if any entry is not exactly `±1.0`.
    ///
    /// The strictness means inputs that are not purely bipolar (e.g. scaled
    /// dropout survivors) are refused instead of being silently
    /// mis-binarized.
    #[must_use]
    pub fn from_bipolar(m: &Matrix) -> Option<Self> {
        let mut out = PackedMatrix::zeros(m.rows(), m.cols());
        let wpr = out.words_per_row;
        for r in 0..m.rows() {
            let words = &mut out.words[r * wpr..(r + 1) * wpr];
            for (c, &v) in m.row(r).iter().enumerate() {
                if v == 1.0 {
                    words[c / 64] |= 1 << (c % 64);
                } else if v != -1.0 {
                    return None;
                }
            }
        }
        Some(out)
    }

    /// Packs the **columns** of a `D×K` matrix into `K` rows of `D` bits by
    /// sign (`v ≥ 0.0` → bit `1`, matching the layer's `sgn(0) = +1`).
    ///
    /// This is how a `D×K` weight matrix — the paper's orientation, and the
    /// one [`BinaryLinear::with_init`](crate::BinaryLinear::with_init) fills
    /// — enters the packed forward product: column `k` becomes packed row
    /// `k`, so `logits[b][k] = dot(x_b, c_k)` is a row-against-row kernel
    /// call.
    ///
    /// Each output word is assembled from 64 branchless sign tests and
    /// stored once — no per-bit read-modify-write of scattered words.
    #[must_use]
    pub fn from_sign_columns(m: &Matrix) -> Self {
        let (d, k) = (m.rows(), m.cols());
        let mut out = PackedMatrix::zeros(k, d);
        let wpr = out.words_per_row;
        let data = m.as_slice();
        for c in 0..k {
            for w in 0..wpr {
                let base = w * 64;
                let n = 64.min(d - base);
                let mut word = 0u64;
                for bit in 0..n {
                    word |= u64::from(data[(base + bit) * k + c] >= 0.0) << bit;
                }
                out.words[c * wpr + w] = word;
            }
        }
        out
    }

    /// Builds a packed matrix by copying pre-packed word rows (e.g. the
    /// words of [`BinaryHv`]s). Tail bits beyond `cols` are cleared.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::InvalidConfig`] if `cols` is zero, the
    /// iterator is empty, or any row has the wrong word count.
    ///
    /// [`BinaryHv`]: hdc::BinaryHv
    pub fn from_word_rows<'a, I>(cols: usize, rows: I) -> Result<Self, BinnetError>
    where
        I: IntoIterator<Item = &'a [u64]>,
    {
        if cols == 0 {
            return Err(BinnetError::InvalidConfig(
                "packed matrix needs at least one column".into(),
            ));
        }
        let words_per_row = cols.div_ceil(64);
        let tail_mask = if cols % 64 == 0 {
            u64::MAX
        } else {
            (1u64 << (cols % 64)) - 1
        };
        let mut words = Vec::new();
        let mut n = 0;
        for row in rows {
            if row.len() != words_per_row {
                return Err(BinnetError::InvalidConfig(format!(
                    "packed row {n} has {} words, expected {words_per_row}",
                    row.len()
                )));
            }
            words.extend_from_slice(row);
            let last = words.len() - 1;
            words[last] &= tail_mask;
            n += 1;
        }
        if n == 0 {
            return Err(BinnetError::InvalidConfig(
                "packed matrix needs at least one row".into(),
            ));
        }
        Ok(PackedMatrix {
            rows: n,
            cols,
            words_per_row,
            words,
        })
    }

    /// Pool-parallel [`from_word_rows`](Self::from_word_rows): `row(r)`
    /// yields the packed words of row `r`, and workers copy disjoint
    /// contiguous row ranges into the output buffer.
    ///
    /// Each destination row is written by exactly one worker from the same
    /// source words, so the result is bit-identical to the sequential
    /// constructor at any worker count. This is the batch-assembly fast path
    /// of the trainer: with a persistent pool, dispatch costs microseconds,
    /// so even the word-copy per mini-batch is worth fanning out.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::InvalidConfig`] if `cols` or `n_rows` is zero,
    /// or any row has the wrong word count.
    pub fn from_word_rows_pooled<'a, F>(
        cols: usize,
        n_rows: usize,
        row: F,
        pool: &ThreadPool,
    ) -> Result<Self, BinnetError>
    where
        F: Fn(usize) -> &'a [u64] + Sync,
    {
        let mut out = PackedMatrix::empty();
        out.refill_word_rows_pooled(cols, n_rows, row, pool)?;
        Ok(out)
    }

    /// Refills `self` in place from pre-packed word rows, reshaping as
    /// needed — the buffer-reusing counterpart of
    /// [`from_word_rows_pooled`](Self::from_word_rows_pooled). Once the word
    /// buffer has grown to the steady batch shape, refills allocate nothing;
    /// this is how the trainer assembles its per-batch packed input without
    /// a per-step `PackedMatrix` allocation.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::InvalidConfig`] if `cols` or `n_rows` is zero,
    /// or any row has the wrong word count. `self` is left unchanged on
    /// error.
    pub fn refill_word_rows_pooled<'a, F>(
        &mut self,
        cols: usize,
        n_rows: usize,
        row: F,
        pool: &ThreadPool,
    ) -> Result<(), BinnetError>
    where
        F: Fn(usize) -> &'a [u64] + Sync,
    {
        if cols == 0 || n_rows == 0 {
            return Err(BinnetError::InvalidConfig(
                "packed matrix needs at least one row and one column".into(),
            ));
        }
        let words_per_row = cols.div_ceil(64);
        if let Some(bad) = (0..n_rows).find(|&r| row(r).len() != words_per_row) {
            return Err(BinnetError::InvalidConfig(format!(
                "packed row {bad} has {} words, expected {words_per_row}",
                row(bad).len()
            )));
        }
        let tail_mask = if cols % 64 == 0 {
            u64::MAX
        } else {
            (1u64 << (cols % 64)) - 1
        };
        self.rows = n_rows;
        self.cols = cols;
        self.words_per_row = words_per_row;
        self.words.clear();
        self.words.resize(n_rows * words_per_row, 0);
        pool.for_each_chunk_mut(&mut self.words, n_rows, words_per_row, |rows, chunk| {
            for (local, r) in rows.enumerate() {
                let dst = &mut chunk[local * words_per_row..(local + 1) * words_per_row];
                dst.copy_from_slice(row(r));
                dst[words_per_row - 1] &= tail_mask;
            }
        });
        Ok(())
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words per packed row (`ceil(cols / 64)`).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Borrows the packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row index out of range");
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// The bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        (self.words[r * self.words_per_row + c / 64] >> (c % 64)) & 1 == 1
    }

    /// The bipolar value at `(r, c)`: `+1.0` for a set bit, `−1.0` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn bipolar(&self, r: usize, c: usize) -> f32 {
        if self.get(r, c) {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of bit positions where `self` and `other` disagree, as one
    /// XOR/popcount pass over the packed words (tail bits are zero in both
    /// operands, so padding never contributes).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn count_diff(&self, other: &PackedMatrix) -> u64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "matrix shapes must match"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum()
    }

    /// Mutable access to the whole packed word buffer, for same-crate
    /// incremental repacking (each task of the fused optimizer step rewrites
    /// exactly the words whose latents it owns). Row `r`'s words occupy
    /// `r * words_per_row ..`; writers must keep tail bits beyond `cols`
    /// zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Expands back to a dense bipolar `f32` matrix — the reference operand
    /// for parity tests.
    #[must_use]
    pub fn to_bipolar_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                *v = if (self.words[r * self.words_per_row + c / 64] >> (c % 64)) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                };
            }
        }
        out
    }
}

/// Packed forward product: `out[b][k] = dot(x_b, w_k) = D − 2·popcount(x_b
/// XOR w_k)`, with `x` a `B×D` packed batch and `w` a `K×D` packed weight
/// set (columns of the effective weight matrix — see
/// [`PackedMatrix::from_sign_columns`]).
///
/// Every entry is an exact integer in `[−D, D]`, so for `D < 2²⁴` the result
/// is bit-identical to `X.matmul(&C)` on the expanded bipolar operands.
/// Threads chunk over output rows; the result is deterministic and
/// independent of `pool` width.
///
/// # Errors
///
/// Returns [`BinnetError::ShapeMismatch`] if `x.cols() != w.cols()`.
pub fn packed_matmul(
    x: &PackedMatrix,
    w: &PackedMatrix,
    pool: &ThreadPool,
) -> Result<Matrix, BinnetError> {
    let mut out = Matrix::zeros(x.rows, w.rows);
    packed_matmul_into(x, w, pool, &mut out)?;
    Ok(out)
}

/// [`packed_matmul`] writing into a caller-owned `B×K` output buffer —
/// identical results with zero allocation per call.
///
/// The kernel is query-blocked: within each pool chunk the batch rows are
/// walked in blocks of [`hdc::kernels::QUERY_BLOCK`], and inside a block
/// each packed weight row is loaded **once** and scored against every batch
/// row of the block (weight-outer / batch-inner), instead of re-streaming
/// the whole `K × D` weight set per batch row. Each `out[b][k]` is still one
/// independent exact-integer dot, so the result is bit-identical at any
/// block size, thread count, or kernel tier.
///
/// # Errors
///
/// Returns [`BinnetError::ShapeMismatch`] if `x.cols() != w.cols()`.
///
/// # Panics
///
/// Panics if `out` is not `x.rows() × w.rows()`.
pub fn packed_matmul_into(
    x: &PackedMatrix,
    w: &PackedMatrix,
    pool: &ThreadPool,
    out: &mut Matrix,
) -> Result<(), BinnetError> {
    if x.cols != w.cols {
        return Err(BinnetError::ShapeMismatch {
            op: "packed_matmul",
            left: (x.rows, x.cols),
            right: (w.rows, w.cols),
        });
    }
    let d = x.cols;
    let k_out = w.rows;
    assert_eq!(
        (out.rows(), out.cols()),
        (x.rows, k_out),
        "output buffer must be B×K"
    );
    pool.for_each_chunk_mut(out.as_mut_slice(), x.rows, k_out, |batch_rows, chunk| {
        let first = batch_rows.start;
        let mut b0 = batch_rows.start;
        while b0 < batch_rows.end {
            let b1 = batch_rows.end.min(b0 + QUERY_BLOCK);
            for k in 0..k_out {
                let wk = w.row_words(k);
                for b in b0..b1 {
                    chunk[(b - first) * k_out + k] = dot_words(d, x.row_words(b), wk) as f32;
                }
            }
            b0 = b1;
        }
    });
    Ok(())
}

/// Masked packed forward product: dropout as a bit mask instead of `f32`
/// zeros. `out[b][k] = kept − 2·popcount((x_b XOR w_k) AND m)`, the exact
/// **unscaled** integer logits of a batch whose dropped coordinates were
/// zeroed; the caller applies `mask.scale()` once to the result.
///
/// Bit-identical to zeroing the dropped columns of the expanded batch
/// ([`DropMask::apply_to_matrix`]) and calling [`Matrix::matmul`].
///
/// # Errors
///
/// Returns [`BinnetError::ShapeMismatch`] if `x.cols() != w.cols()`.
///
/// # Panics
///
/// Panics if `mask.dim() != x.cols()`.
pub fn packed_matmul_masked(
    x: &PackedMatrix,
    w: &PackedMatrix,
    mask: &DropMask,
    pool: &ThreadPool,
) -> Result<Matrix, BinnetError> {
    let mut out = Matrix::zeros(x.rows, w.rows);
    packed_matmul_masked_into(x, w, mask, pool, &mut out)?;
    Ok(out)
}

/// [`packed_matmul_masked`] writing into a caller-owned `B×K` output buffer —
/// identical results with zero allocation per call. Query-blocked like
/// [`packed_matmul_into`]: the mask and each weight row stay resident while
/// a block of batch rows streams against them.
///
/// # Errors
///
/// Returns [`BinnetError::ShapeMismatch`] if `x.cols() != w.cols()`.
///
/// # Panics
///
/// Panics if `mask.dim() != x.cols()` or `out` is not `x.rows() × w.rows()`.
pub fn packed_matmul_masked_into(
    x: &PackedMatrix,
    w: &PackedMatrix,
    mask: &DropMask,
    pool: &ThreadPool,
    out: &mut Matrix,
) -> Result<(), BinnetError> {
    if x.cols != w.cols {
        return Err(BinnetError::ShapeMismatch {
            op: "packed_matmul_masked",
            left: (x.rows, x.cols),
            right: (w.rows, w.cols),
        });
    }
    assert_eq!(mask.dim(), x.cols, "mask width must match input width");
    let kept = mask.kept();
    let m = mask.words();
    let k_out = w.rows;
    assert_eq!(
        (out.rows(), out.cols()),
        (x.rows, k_out),
        "output buffer must be B×K"
    );
    pool.for_each_chunk_mut(out.as_mut_slice(), x.rows, k_out, |batch_rows, chunk| {
        let first = batch_rows.start;
        let mut b0 = batch_rows.start;
        while b0 < batch_rows.end {
            let b1 = batch_rows.end.min(b0 + QUERY_BLOCK);
            for k in 0..k_out {
                let wk = w.row_words(k);
                for b in b0..b1 {
                    chunk[(b - first) * k_out + k] =
                        masked_dot_words(kept, x.row_words(b), wk, m) as f32;
                }
            }
            b0 = b1;
        }
    });
    Ok(())
}

/// Packed gradient product `Gᵀ·X`, class-major: `out[k][d] = Σ_b (±1)·g[b][k]`
/// with the sign taken from bit `d` of packed batch row `b`. The result is
/// `K×D`, the transpose of the dense `Xᵀ·G`, so row `k` is the latent
/// gradient of class `k`. With `mask`, dropped dimensions produce all-zero
/// gradient columns — exactly what the dense reference yields for a zeroed
/// input column.
///
/// Threads chunk over the `D` output dims; the summed batch dimension is
/// always walked in ascending order, so the result is bit-identical to
/// [`Matrix::transpose_matmul`] on the expanded (and mask-zeroed) batch,
/// transposed, at any `pool` width.
///
/// # Errors
///
/// Returns [`BinnetError::ShapeMismatch`] if `x.rows() != g.rows()`.
///
/// # Panics
///
/// Panics if a mask is given and `mask.dim() != x.cols()`.
pub fn packed_transpose_matmul(
    x: &PackedMatrix,
    g: &Matrix,
    mask: Option<&DropMask>,
    pool: &ThreadPool,
) -> Result<Matrix, BinnetError> {
    let mut out = Matrix::zeros(g.cols(), x.cols);
    packed_transpose_matmul_into(x, g, mask, pool, &mut out)?;
    Ok(out)
}

/// Output-tile size of the blocked gradient kernel, in `f32`s (~16 KB — an
/// easy fit in L1/L2 alongside one packed batch row and one gradient row).
const TILE_F32S: usize = 4096;

/// [`packed_transpose_matmul`] writing into a caller-owned `K×D` output
/// buffer. The vector tiers' term lists are built fresh per call;
/// [`BinaryLinear::backward_packed_into`](crate::BinaryLinear::backward_packed_into)
/// keeps them in the layer, so its warm calls allocate nothing.
///
/// The kernel dispatches on [`hdc::kernels::active_tier`] (the
/// `LEHDC_KERNEL` override included). Every tier chunks the pool over output
/// dims — each chunk owns the `K` class-row sub-slices of its dim range —
/// and computes every output element as `+0.0` plus its nonzero `±g` terms
/// in ascending batch order, so the results are bit-identical (the module
/// doc shows why the skipped `±0.0` terms cannot change a bit):
///
/// - **scalar** (the reference, and the path on hosts without AVX2): every
///   term, cache-blocked — each pool chunk walks its output dims in tiles of
///   at most `TILE_F32S` (4,096) `f32`s, and within a tile iterates the
///   batch **outer** / dims **inner**, so row `b`'s packed words and
///   gradient row are loaded once per tile and the tile stays resident while
///   the batch streams over it. The ±1 sign is applied as a branchless
///   sign-bit flip — IEEE negation is exact — rather than a `±1.0`
///   multiply, which pays the subnormal-assist penalty that softmax
///   gradients trigger at large D.
/// - **AVX2** and **AVX-512**: only the nonzero terms. Before the pool
///   fan-out, the entries of `G` that are not `±0.0` are listed for each
///   pair of classes, in ascending batch row. Each pool chunk then walks
///   its output dims in chunks of several registers (8 lanes per `ymm`, 16
///   per `zmm`); for each class pair it adds the pair's terms into two sets
///   of registers and stores them under the dropout keep-mask. A chunk's
///   sign vectors are built once per live batch row (a row with at least
///   one term) and shared by every class (see the `avx2` and `avx512`
///   submodules).
///
/// On both vector tiers, chunk heads and tails that are not aligned to the
/// register width take the scalar code.
///
/// The result equals the dense reference at any `pool` width for finite
/// gradients. Masked dims are exactly `+0.0` where the dense reference
/// accumulates `±0.0`; the two are `==` and indistinguishable to every
/// downstream consumer (a non-finite gradient under a mask would differ —
/// the dense reference turns `0.0·∞` into NaN — but softmax gradients are
/// always finite).
///
/// # Errors
///
/// Returns [`BinnetError::ShapeMismatch`] if `x.rows() != g.rows()`.
///
/// # Panics
///
/// Panics if a mask is given and `mask.dim() != x.cols()`, or if `out` is
/// not `g.cols() × x.cols()`.
pub fn packed_transpose_matmul_into(
    x: &PackedMatrix,
    g: &Matrix,
    mask: Option<&DropMask>,
    pool: &ThreadPool,
    out: &mut Matrix,
) -> Result<(), BinnetError> {
    packed_transpose_matmul_into_on(active_tier(), x, g, mask, pool, out)
}

/// [`packed_transpose_matmul_into`] forced onto `tier`, for differential
/// testing. The scalar tier runs the reference code, the AVX2 tier the
/// 8-lane body and the AVX-512 tier the 16-lane body.
///
/// # Errors
///
/// As [`packed_transpose_matmul_into`].
///
/// # Panics
///
/// As [`packed_transpose_matmul_into`], and if this CPU cannot run `tier` —
/// check [`KernelTier::available`] first.
pub fn packed_transpose_matmul_into_on(
    tier: KernelTier,
    x: &PackedMatrix,
    g: &Matrix,
    mask: Option<&DropMask>,
    pool: &ThreadPool,
    out: &mut Matrix,
) -> Result<(), BinnetError> {
    gradient_product(tier, x, g, mask, pool, out, &mut GradTerms::default())
}

/// [`packed_transpose_matmul_into_on`] with the term lists in `terms`,
/// refilled in place: once they have grown to the steady batch shape, a
/// call allocates no term storage.
pub(crate) fn gradient_product(
    tier: KernelTier,
    x: &PackedMatrix,
    g: &Matrix,
    mask: Option<&DropMask>,
    pool: &ThreadPool,
    out: &mut Matrix,
    terms: &mut GradTerms,
) -> Result<(), BinnetError> {
    assert!(
        tier.available(),
        "the {} kernels need a CPU that supports them",
        tier.name()
    );
    if x.rows != g.rows() {
        return Err(BinnetError::ShapeMismatch {
            op: "packed_transpose_matmul",
            left: (x.rows, x.cols),
            right: (g.rows(), g.cols()),
        });
    }
    if let Some(m) = mask {
        assert_eq!(m.dim(), x.cols, "mask width must match input width");
    }
    let (d, k) = (x.cols, g.cols());
    assert_eq!(
        (out.rows(), out.cols()),
        (k, d),
        "output buffer must be K×D"
    );
    terms.refill(g);
    let op = Operands {
        x: &x.words,
        wpr: x.words_per_row,
        g: g.as_slice(),
        k,
        mask: mask.map(DropMask::words),
        terms,
    };
    // Split every class row at the chunk boundaries, so each task owns the
    // K sub-slices of its dim range.
    let mut tasks: Vec<(Range<usize>, Vec<&mut [f32]>)> = chunk_ranges(d, pool.threads())
        .into_iter()
        .map(|dims| (dims, Vec::with_capacity(k)))
        .collect();
    let mut rest = out.as_mut_slice();
    for _ in 0..k {
        for (dims, rows) in &mut tasks {
            let (part, tail) = rest.split_at_mut(dims.len());
            rows.push(part);
            rest = tail;
        }
    }
    pool.for_each_task(tasks, |_, (dims, mut rows)| match tier {
        KernelTier::Scalar => gradient_dims_scalar(op, dims.clone(), dims.start, &mut rows),
        // SAFETY: `tier` is available (asserted above): AVX2 on the AVX2
        // tier, AVX-512F on the AVX-512 tier.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe {
            gradient_dims_lanes(op, dims, &mut rows, avx2::LANES, avx2::gradient_dims)
        },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => unsafe {
            gradient_dims_lanes(op, dims, &mut rows, avx512::LANES, avx512::gradient_dims)
        },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 | KernelTier::Avx512 => {
            unreachable!("the SIMD tiers are only available on x86-64")
        }
    });
    Ok(())
}

/// The operands of one gradient product, as the tier kernels see them.
#[derive(Clone, Copy)]
struct Operands<'a> {
    /// Packed `B×D` batch, `wpr` words per row.
    x: &'a [u64],
    /// Words per packed batch row.
    wpr: usize,
    /// Row-major `B×K` gradient (the scalar tier reads every entry).
    g: &'a [f32],
    /// Classes `K` (gradient columns).
    k: usize,
    /// Packed dropout keep-mask over `D`, if any.
    mask: Option<&'a [u64]>,
    /// The nonzero entries of `g`, class by class (the vector tiers read
    /// only these).
    terms: &'a GradTerms,
}

#[cfg(target_arch = "x86_64")]
impl Operands<'_> {
    /// The packed input bits of batch row `b` as bytes: bit `j` of byte
    /// `i` is dim `8i + j`, so a register's worth of bits (8 or 16) from a
    /// dim aligned to that width is one byte or two.
    #[inline(always)]
    fn row_bytes(&self, b: usize) -> &[u8] {
        let row = &self.x[b * self.wpr..][..self.wpr];
        // SAFETY: the bytes lie inside `row`, `u8` has no alignment
        // requirement, and x86-64 is little-endian, so byte `i` of the
        // row holds bits `8i..8i + 8` of its words.
        unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u8>(), row.len() * 8) }
    }

    /// The dropout keep bits from dim `d` to the end of `d`'s word, bit
    /// `j` for dim `d + j`; all set without a mask.
    #[inline(always)]
    fn keep_from(&self, d: usize) -> u64 {
        match self.mask {
            Some(m) => m[d / 64] >> (d % 64),
            None => u64::MAX,
        }
    }
}

/// One entry of a class pair's term list: the pair's two gradient entries
/// `g[b][2p]` and `g[b][2p + 1]` of one batch row `b`, at least one of them
/// not `±0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Term {
    /// The rank of batch row `b` among the live rows
    /// ([`GradTerms::live`]), so a body can index its per-row sign data.
    pub(crate) slot: u32,
    /// The two entries, negated (an exact sign-bit flip): the bodies XOR
    /// them with the sign bit where the input bit is 1, which gives `+g`
    /// there and `−g` where it is 0. One entry may be `±0.0`, which the
    /// bodies add all the same: a `±0.0` term never changes a sum that
    /// starts at `+0.0`. With odd `K`, the last pair's second entry is
    /// `−0.0`.
    pub(crate) neg_g: [f32; 2],
}

/// The nonzero terms of a gradient `G`, in ascending batch row for each
/// pair of classes: what the vector bodies of the gradient product walk
/// instead of all `B·K` entries. A softmax over logits of magnitude ~10³
/// saturates, so most entries of the LeHDC gradient are exactly `±0.0` at
/// large `D`.
///
/// Classes go in pairs so that a body loads a row's sign vectors once for
/// two classes' registers: on a dense gradient, one class per walk is
/// bound by those loads. A pair lists a row when either class has a term
/// in it.
///
/// The buffers are refilled in place, so once they have grown to the
/// steady batch shape a refill allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct GradTerms {
    /// Batch rows with at least one term, ascending.
    live: Vec<u32>,
    /// Pair `p`'s terms are `terms[p·B..][..lens[p]]`, for `B` batch rows.
    lens: Vec<usize>,
    /// `B` slots per pair, of which pair `p` uses the first `lens[p]`.
    terms: Vec<Term>,
    /// The live-row ranks the first pair does not list, ascending: the
    /// rows whose sign vectors a body builds before its walks, since the
    /// first pair's walk builds those of the rows it lists.
    unlisted: Vec<u32>,
    /// Batch rows `B` of the last refill.
    stride: usize,
    /// Entries of `G` that are not `±0.0`.
    nonzero: usize,
}

/// Whether a gradient entry is a term: anything but `±0.0`, so subnormals,
/// `±∞` and NaN all count.
fn is_term(v: f32) -> bool {
    v.to_bits() << 1 != 0
}

impl GradTerms {
    /// Rebuilds the lists from the row-major `B×K` gradient `g`: one pass
    /// over its rows finds the live ones, then one pass per class pair
    /// writes each live row's entries to the pair's next slot, which
    /// advances only past a term, so no entry takes a branch.
    fn refill(&mut self, g: &Matrix) {
        let (rows, k) = (g.rows(), g.cols());
        self.live.clear();
        self.unlisted.clear();
        self.nonzero = 0;
        for (b, row) in g.as_slice().chunks_exact(k.max(1)).enumerate() {
            let nonzero = row.iter().filter(|&&v| is_term(v)).count();
            if nonzero > 0 {
                let rank = |n: usize| u32::try_from(n).expect("batch rows fit in u32");
                if !row.iter().take(2).any(|&v| is_term(v)) {
                    self.unlisted.push(rank(self.live.len()));
                }
                self.live.push(rank(b));
                self.nonzero += nonzero;
            }
        }
        self.stride = rows;
        self.terms.clear();
        self.terms.resize(k.div_ceil(2) * rows, Term::default());
        self.lens.clear();
        for (c, list) in (0..k)
            .step_by(2)
            .zip(self.terms.chunks_exact_mut(rows.max(1)))
        {
            let mut len = 0;
            for (slot, &b) in (0u32..).zip(&self.live) {
                let at = b as usize * k + c;
                let pair = [
                    g.as_slice()[at],
                    if c + 1 < k { g.as_slice()[at + 1] } else { 0.0 },
                ];
                list[len] = Term {
                    slot,
                    neg_g: [-pair[0], -pair[1]],
                };
                len += usize::from(is_term(pair[0]) | is_term(pair[1]));
            }
            self.lens.push(len);
        }
    }

    /// Number of entries of `G` that are not `±0.0`.
    pub(crate) fn len(&self) -> usize {
        self.nonzero
    }

    /// The batch rows holding at least one term, ascending.
    #[cfg(target_arch = "x86_64")]
    fn live(&self) -> &[u32] {
        &self.live
    }

    /// Pair `p`'s terms whose live-row rank lies in `slots`, ascending.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn pair_terms(&self, p: usize, slots: Range<usize>) -> &[Term] {
        let all = &self.terms[p * self.stride..][..self.lens[p]];
        if slots == (0..self.live.len()) {
            return all;
        }
        let lo = all.partition_point(|t| (t.slot as usize) < slots.start);
        let hi = all.partition_point(|t| (t.slot as usize) < slots.end);
        &all[lo..hi]
    }

    /// The live-row ranks in `slots` that the first pair does not list,
    /// ascending.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn unlisted(&self, slots: Range<usize>) -> &[u32] {
        if slots == (0..self.live.len()) {
            return &self.unlisted;
        }
        let lo = self
            .unlisted
            .partition_point(|&s| (s as usize) < slots.start);
        let hi = self.unlisted.partition_point(|&s| (s as usize) < slots.end);
        &self.unlisted[lo..hi]
    }

    /// The data pointers of the four buffers, for reuse checks.
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> [usize; 4] {
        [
            self.live.as_ptr() as usize,
            self.lens.as_ptr() as usize,
            self.terms.as_ptr() as usize,
            self.unlisted.as_ptr() as usize,
        ]
    }
}

/// Where a vector body's walk of one class pair over one block of live
/// rows stores its sums.
#[cfg(target_arch = "x86_64")]
struct PairOut<'a, 'b, M, const G: usize> {
    /// The pair's class rows (one with odd `K`'s last pair).
    rows: &'a mut [&'b mut [f32]],
    /// Offset of the chunk's first dim in each row.
    at: usize,
    /// The dropout keep-mask of each register's dims.
    keep: &'a [M; G],
    /// Whether this is the first block: the sums start at `+0.0`, not at
    /// the partial sums stored in the rows.
    first: bool,
    /// Whether this is the last block, whose store applies `keep`.
    last: bool,
}

/// Splits `live` rows into blocks of at most `rows` — always at least one
/// block, empty when no row is live, so every output is still stored.
#[cfg(target_arch = "x86_64")]
fn row_blocks(live: usize, rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..live.div_ceil(rows).max(1)).map(move |i| i * rows..live.min((i + 1) * rows))
}

/// Vector tiers: writes the gradient of `dims` into `rows`, where `rows[c]`
/// holds class `c`'s outputs for exactly those dims. The `lanes`-aligned
/// middle runs on the vector `body` (`body(op, dims, first, rows)` writes
/// `rows[c][dim - first]` for each `dim` of its aligned range); a chunk head
/// or tail that is not `lanes`-aligned takes the scalar code.
///
/// # Safety
///
/// The CPU must support the target features `body` is built for, and
/// `body` must accept any `lanes`-aligned dim range.
#[cfg(target_arch = "x86_64")]
unsafe fn gradient_dims_lanes(
    op: Operands<'_>,
    dims: Range<usize>,
    rows: &mut [&mut [f32]],
    lanes: usize,
    body: unsafe fn(Operands<'_>, Range<usize>, usize, &mut [&mut [f32]]),
) {
    let first = dims.start;
    let head_end = dims.start.next_multiple_of(lanes).min(dims.end);
    let body_end = head_end + (dims.end - head_end) / lanes * lanes;
    gradient_dims_scalar(op, dims.start..head_end, first, rows);
    if body_end > head_end {
        // SAFETY: the CPU runs `body` (caller contract) and the body range
        // is `lanes`-aligned.
        unsafe { body(op, head_end..body_end, first, rows) };
    }
    gradient_dims_scalar(op, body_end..dims.end, first, rows);
}

/// Scalar reference tier: writes the gradient of `dims` into `rows`, where
/// `rows[c][dim - first]` is class `c`'s output for `dim`, cache-blocked as
/// described on [`packed_transpose_matmul_into`].
fn gradient_dims_scalar(
    op: Operands<'_>,
    dims: Range<usize>,
    first: usize,
    rows: &mut [&mut [f32]],
) {
    for row in rows.iter_mut() {
        row[dims.start - first..dims.end - first].fill(0.0);
    }
    let block = (TILE_F32S / op.k).max(64);
    let mut blk = dims.start;
    while blk < dims.end {
        let blk_end = dims.end.min(blk + block);
        for (x_words, g_row) in op.x.chunks_exact(op.wpr).zip(op.g.chunks_exact(op.k)) {
            for dim in blk..blk_end {
                // `±gv` as a sign-bit XOR, not a `±1.0` multiply: both
                // are exact and branchless, but the multiply pays the
                // subnormal-assist penalty on every subnormal gradient
                // entry — and softmax routinely emits subnormal
                // probabilities at large D, each one multiplied D times
                // here (milliseconds per batch). Integer XOR/AND and an
                // f32 add take no such assist.
                let bit = (x_words[dim / 64] >> (dim % 64)) & 1;
                let flip = ((bit ^ 1) as u32) << 31;
                let keep = match op.mask {
                    Some(m) => (((m[dim / 64] >> (dim % 64)) & 1) as u32).wrapping_neg(),
                    None => u32::MAX,
                };
                for (row, &gv) in rows.iter_mut().zip(g_row) {
                    row[dim - first] += f32::from_bits((gv.to_bits() ^ flip) & keep);
                }
            }
        }
        blk = blk_end;
    }
}

/// One task of the fused optimizer step
/// ([`BinaryLinear::apply_gradient_fused`](crate::BinaryLinear::apply_gradient_fused)):
/// the packed weight words `words` — indices into all `K·wpr` words of the
/// weight rows — with `packed` holding them, and the contiguous class-major
/// latent coordinates they cover, with the matching gradient and Adam
/// moment slices.
pub(crate) struct FusedChunk<'a> {
    pub(crate) words: Range<usize>,
    pub(crate) packed: &'a mut [u64],
    pub(crate) latent: &'a mut [f32],
    pub(crate) grad: &'a [f32],
    pub(crate) adam: AdamChunk<'a>,
}

/// Runs one fused-step task on `tier`: the Adam update of each coordinate,
/// then each packed word rebuilt from the signs (`l >= 0.0`) of its
/// updated latents. The AVX2 and AVX-512 tiers run the AVX2 kernel, which
/// performs the scalar IEEE operations per coordinate in the same order, so
/// every tier is bit-identical; `tier` must be available on this CPU.
pub(crate) fn fused_step_on(tier: KernelTier, d: usize, wpr: usize, chunk: FusedChunk<'_>) {
    match tier {
        // SAFETY: callers pass an available tier, and both SIMD tiers are
        // only available on CPUs with AVX2.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 | KernelTier::Avx512 => unsafe { avx2::fused_step(d, wpr, chunk) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 | KernelTier::Avx512 => {
            unreachable!("the SIMD tiers are only available on x86-64")
        }
        KernelTier::Scalar => {
            let FusedChunk {
                words,
                packed,
                latent,
                grad,
                adam,
            } = chunk;
            for (out, r) in packed.iter_mut().zip(word_spans(d, wpr, words)) {
                *out = step_word_scalar(
                    adam.step,
                    &mut latent[r.clone()],
                    &grad[r.clone()],
                    &mut adam.m[r.clone()],
                    &mut adam.v[r],
                );
            }
        }
    }
}

/// The chunk-local coordinate range of each word in `words`. Word `i`
/// covers dims `[w·64, min(w·64 + 64, D))` of class row `i / wpr`, with
/// `w = i mod wpr`, and row `c` ends where row `c + 1` begins, so a chunk's
/// words consume its coordinates in order.
fn word_spans(d: usize, wpr: usize, words: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let mut at = 0;
    words.map(move |i| {
        let n = (d - i % wpr * 64).min(64);
        at += n;
        at - n..at
    })
}

/// Updates up to 64 coordinates and returns their sign bits, bit `j` set
/// when coordinate `j` ends `>= 0.0` (so `−0.0` packs to 1 and NaN to 0).
#[inline(always)]
fn step_word_scalar(step: AdamStep, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) -> u64 {
    let mut word = 0u64;
    for (j, pj) in p.iter_mut().enumerate() {
        step.update(pj, g[j], &mut m[j], &mut v[j]);
        word |= u64::from(*pj >= 0.0) << j;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dropout::Dropout;
    use crate::layer::random_sign_matrix;
    use testkit::{Rng, Xoshiro256pp};

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    #[test]
    fn from_fn_and_get_roundtrip() {
        let p = PackedMatrix::from_fn(3, 70, |r, c| (r + c) % 3 == 0);
        assert_eq!((p.rows(), p.cols(), p.words_per_row()), (3, 70, 2));
        for r in 0..3 {
            for c in 0..70 {
                assert_eq!(p.get(r, c), (r + c) % 3 == 0, "({r},{c})");
            }
        }
        // tail bits beyond cols stay zero
        assert_eq!(p.row_words(0)[1] >> 6, 0);
    }

    #[test]
    fn bipolar_pack_roundtrips_and_rejects_non_bipolar() {
        let mut r = rng(1);
        let m = random_sign_matrix(4, 130, &mut r);
        let p = PackedMatrix::from_bipolar(&m).expect("bipolar");
        assert_eq!(p.to_bipolar_matrix(), m);
        assert_eq!(p.bipolar(0, 0), m.get(0, 0));

        let mut bad = m.clone();
        bad.set(2, 17, 2.0); // a dropout-scaled survivor
        assert!(PackedMatrix::from_bipolar(&bad).is_none());
        bad.set(2, 17, 0.0); // a dropout zero
        assert!(PackedMatrix::from_bipolar(&bad).is_none());
    }

    #[test]
    fn sign_columns_packs_transposed_by_sign() {
        let w = Matrix::from_rows(&[vec![0.5, -0.5], vec![-2.0, 0.0], vec![1.0, -1.0]]).unwrap();
        let p = PackedMatrix::from_sign_columns(&w);
        assert_eq!((p.rows(), p.cols()), (2, 3)); // K×D
                                                  // column 0 signs: +, −, + ; column 1: −, + (sgn 0 = +1), −
        assert_eq!((p.get(0, 0), p.get(0, 1), p.get(0, 2)), (true, false, true));
        assert_eq!(
            (p.get(1, 0), p.get(1, 1), p.get(1, 2)),
            (false, true, false)
        );
        // a negative zero is still sgn(0) = +1
        let z = Matrix::from_rows(&[vec![-0.0]]).unwrap();
        assert!(PackedMatrix::from_sign_columns(&z).get(0, 0));
    }

    #[test]
    fn from_word_rows_validates_and_masks_tail() {
        let rows: Vec<Vec<u64>> = vec![vec![u64::MAX, u64::MAX], vec![0, 0]];
        let p = PackedMatrix::from_word_rows(70, rows.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(p.row_words(0)[1], (1 << 6) - 1, "tail bits cleared");
        assert!(PackedMatrix::from_word_rows(70, [vec![0u64; 3].as_slice()]).is_err());
        assert!(PackedMatrix::from_word_rows(70, std::iter::empty()).is_err());
        assert!(PackedMatrix::from_word_rows(0, rows.iter().map(Vec::as_slice)).is_err());
    }

    #[test]
    fn from_word_rows_pooled_matches_sequential() {
        let rows: Vec<Vec<u64>> = (0..17)
            .map(|r| vec![u64::MAX.rotate_left(r as u32), r as u64])
            .collect();
        let seq = PackedMatrix::from_word_rows(100, rows.iter().map(Vec::as_slice)).unwrap();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let par = PackedMatrix::from_word_rows_pooled(100, 17, |r| rows[r].as_slice(), &pool)
                .unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
        let pool = ThreadPool::new(2);
        let bad = [0u64; 3];
        assert!(PackedMatrix::from_word_rows_pooled(70, 2, |_| bad.as_slice(), &pool).is_err());
        assert!(PackedMatrix::from_word_rows_pooled(0, 2, |r| rows[r].as_slice(), &pool).is_err());
    }

    #[test]
    fn sign_columns_matches_per_bit_reference() {
        let mut r = rng(21);
        for (d, k) in [(1usize, 1usize), (63, 2), (64, 3), (65, 4), (200, 5)] {
            let mut m = Matrix::zeros(d, k);
            m.map_inplace(|_| r.random_range(-1.0f32..1.0));
            m.set(0, 0, 0.0); // sgn(0) = +1 edge
            let word_level = PackedMatrix::from_sign_columns(&m);
            let reference = PackedMatrix::from_fn(k, d, |c, dim| m.get(dim, c) >= 0.0);
            assert_eq!(word_level, reference, "d={d} k={k}");
        }
    }

    #[test]
    fn count_diff_counts_disagreeing_bits() {
        let a = PackedMatrix::from_fn(3, 70, |r, c| (r + c) % 2 == 0);
        assert_eq!(a.count_diff(&a), 0);
        let b = PackedMatrix::from_fn(3, 70, |r, c| (r + c) % 2 == 0 || c == 5);
        // column 5 flips wherever (r+5) % 2 != 0: rows 0 and 2
        assert_eq!(a.count_diff(&b), 2);
        let full = PackedMatrix::from_fn(3, 70, |_, _| true);
        let empty = PackedMatrix::zeros(3, 70);
        assert_eq!(full.count_diff(&empty), 3 * 70, "tail bits never counted");
    }

    #[test]
    fn refill_word_rows_reuses_buffer_without_reallocating() {
        let rows: Vec<Vec<u64>> = (0..9).map(|r| vec![r as u64, u64::MAX]).collect();
        let pool = ThreadPool::new(2);
        let mut m =
            PackedMatrix::from_word_rows_pooled(100, 9, |r| rows[r].as_slice(), &pool).unwrap();
        let ptr = m.row_words(0).as_ptr();
        // shrink (partial batch) then grow back: capacity is retained
        m.refill_word_rows_pooled(100, 4, |r| rows[r + 1].as_slice(), &pool)
            .unwrap();
        assert_eq!((m.rows(), m.cols()), (4, 100));
        assert_eq!(m.row_words(0)[0], 1);
        m.refill_word_rows_pooled(100, 9, |r| rows[r].as_slice(), &pool)
            .unwrap();
        let seq = PackedMatrix::from_word_rows(100, rows.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(m, seq);
        assert_eq!(m.row_words(0).as_ptr(), ptr, "refill must not reallocate");
        // errors leave the buffer untouched
        let bad = [0u64; 3];
        assert!(m
            .refill_word_rows_pooled(100, 2, |_| bad.as_slice(), &pool)
            .is_err());
        assert_eq!(m, seq);
    }

    #[test]
    fn packed_matmul_matches_dense_exactly() {
        let mut r = rng(7);
        for d in [64usize, 100, 257] {
            let x = random_sign_matrix(5, d, &mut r);
            let w = random_sign_matrix(d, 3, &mut r);
            let expect = x.matmul(&w).unwrap();
            let px = PackedMatrix::from_bipolar(&x).unwrap();
            let pw = PackedMatrix::from_sign_columns(&w);
            for threads in [1, 3] {
                let got = packed_matmul(&px, &pw, &ThreadPool::new(threads)).unwrap();
                assert_eq!(got, expect, "d={d} threads={threads}");
            }
        }
    }

    #[test]
    fn packed_matmul_masked_matches_dense_reference() {
        let mut r = rng(9);
        let d = 200;
        let x = random_sign_matrix(6, d, &mut r);
        let w = random_sign_matrix(d, 4, &mut r);
        let mut drop = Dropout::new(0.3, 5).unwrap();
        let mask = drop.sample_mask(d).unwrap();

        let mut x_ref = x.clone();
        mask.apply_to_matrix(&mut x_ref); // unscaled zeros
        let expect = x_ref.matmul(&w).unwrap();

        let px = PackedMatrix::from_bipolar(&x).unwrap();
        let pw = PackedMatrix::from_sign_columns(&w);
        for threads in [1, 2] {
            let got = packed_matmul_masked(&px, &pw, &mask, &ThreadPool::new(threads)).unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn packed_transpose_matmul_matches_dense_exactly() {
        let mut r = rng(11);
        let (b, d, k) = (7, 150, 3);
        let x = random_sign_matrix(b, d, &mut r);
        let mut g = Matrix::zeros(b, k);
        g.map_inplace(|_| r.random_range(-1.0f32..1.0));
        let expect = x.transpose_matmul(&g).unwrap().transposed();
        let px = PackedMatrix::from_bipolar(&x).unwrap();
        for threads in [1, 2, 4] {
            let got = packed_transpose_matmul(&px, &g, None, &ThreadPool::new(threads)).unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn packed_transpose_matmul_masked_matches_dense_reference() {
        let mut r = rng(13);
        let (b, d, k) = (4, 100, 2);
        let x = random_sign_matrix(b, d, &mut r);
        let mut g = Matrix::zeros(b, k);
        g.map_inplace(|_| r.random_range(-1.0f32..1.0));
        let mut drop = Dropout::new(0.5, 3).unwrap();
        let mask = drop.sample_mask(d).unwrap();

        let mut x_ref = x.clone();
        mask.apply_to_matrix(&mut x_ref);
        let expect = x_ref.transpose_matmul(&g).unwrap().transposed();

        let px = PackedMatrix::from_bipolar(&x).unwrap();
        let got = packed_transpose_matmul(&px, &g, Some(&mask), &ThreadPool::new(2)).unwrap();
        assert_eq!(got, expect);
        // dropped dims have exactly-zero gradient columns
        for dim in 0..d {
            if !mask.is_kept(dim) {
                assert!((0..k).all(|c| got.get(c, dim) == 0.0));
            }
        }
    }

    #[test]
    fn products_reject_mismatched_shapes() {
        let a = PackedMatrix::zeros(2, 64);
        let b = PackedMatrix::zeros(3, 65);
        let pool = ThreadPool::new(1);
        assert!(matches!(
            packed_matmul(&a, &b, &pool),
            Err(BinnetError::ShapeMismatch {
                op: "packed_matmul",
                ..
            })
        ));
        let g = Matrix::zeros(3, 2);
        assert!(matches!(
            packed_transpose_matmul(&a, &g, None, &pool),
            Err(BinnetError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn full_mask_reduces_to_unmasked_product() {
        let mut r = rng(17);
        let d = 96;
        let x = random_sign_matrix(3, d, &mut r);
        let w = random_sign_matrix(d, 2, &mut r);
        let px = PackedMatrix::from_bipolar(&x).unwrap();
        let pw = PackedMatrix::from_sign_columns(&w);
        let pool = ThreadPool::new(1);
        let full = DropMask::full(d);
        assert_eq!(
            packed_matmul_masked(&px, &pw, &full, &pool).unwrap(),
            packed_matmul(&px, &pw, &pool).unwrap()
        );
    }
}
