//! Inverted dropout on layer inputs.

use testkit::{Rng, Xoshiro256pp};

use crate::error::BinnetError;
use crate::matrix::Matrix;

/// Inverted dropout: during training each input coordinate is zeroed with
/// probability `rate` and the survivors are scaled by `1/(1−rate)`, so the
/// expected pre-activation is unchanged and inference needs no rescaling.
///
/// The paper (Sec. 4) argues dropout is "indispensable" for the wide
/// single-layer BNN: with all `D` weights of every class updated each step,
/// the class hypervectors otherwise overfit the training samples (Fig. 5).
///
/// # Examples
///
/// ```
/// use binnet::{Dropout, Matrix};
///
/// # fn main() -> Result<(), binnet::BinnetError> {
/// let mut dropout = Dropout::new(0.5, 42)?;
/// let mut x = Matrix::from_rows(&[vec![1.0; 1000]])?;
/// dropout.apply(&mut x);
/// let kept = x.as_slice().iter().filter(|&&v| v != 0.0).count();
/// assert!((300..700).contains(&kept)); // ≈ half survive
/// assert!(x.as_slice().iter().all(|&v| v == 0.0 || v == 2.0)); // scaled by 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dropout {
    rate: f32,
    rng: Xoshiro256pp,
}

impl Dropout {
    /// Creates a dropout mask generator with drop probability `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::InvalidConfig`] unless `0 ≤ rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Result<Self, BinnetError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(BinnetError::InvalidConfig(format!(
                "dropout rate must be in [0, 1), got {rate}"
            )));
        }
        Ok(Dropout {
            rate,
            rng: Xoshiro256pp::seed_from_u64(seed),
        })
    }

    /// The drop probability.
    #[must_use]
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Applies a fresh inverted-dropout mask to `x` in place.
    ///
    /// A rate of 0 leaves `x` untouched.
    pub fn apply(&mut self, x: &mut Matrix) {
        if self.rate == 0.0 {
            return;
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        for v in x.as_mut_slice() {
            if self.rng.random::<f32>() < self.rate {
                *v = 0.0;
            } else {
                *v *= scale;
            }
        }
    }

    /// Samples a fresh per-batch bit mask over `dim` input coordinates, or
    /// `None` when the rate is 0 (no mask needed).
    ///
    /// This is the packed-kernel counterpart of [`Dropout::apply`]: instead
    /// of zeroing `f32` entries per element, one `D`-bit mask is drawn per
    /// batch and shared by every row, so the packed forward pass can apply
    /// dropout with an `AND` inside the XNOR/popcount kernel. The survivor
    /// scale `1/(1−rate)` is carried on the mask and applied **once to the
    /// integer logits**, not to the inputs — that ordering is what keeps the
    /// packed path bit-identical to the dense `f32` reference (see
    /// [`crate::packed`]).
    ///
    /// Coordinate `i` is kept when the `i`-th uniform draw is `>= rate`.
    /// Each word is built from its 64 draws with branchless compares and
    /// `kept` is the popcount of the words, so a rate near 0.5 pays no
    /// branch mispredictions.
    pub fn sample_mask(&mut self, dim: usize) -> Option<DropMask> {
        if self.rate == 0.0 {
            return None;
        }
        let mut words = vec![0u64; dim.div_ceil(64)];
        for (w, word) in words.iter_mut().enumerate() {
            let mut bits = 0u64;
            for b in 0..(dim - w * 64).min(64) {
                bits |= u64::from(self.rng.random::<f32>() >= self.rate) << b;
            }
            *word = bits;
        }
        let kept = words.iter().map(|w| w.count_ones() as usize).sum();
        Some(DropMask {
            words,
            dim,
            kept,
            scale: 1.0 / (1.0 - self.rate),
        })
    }
}

/// A per-batch dropout bit mask: bit `1` ≡ coordinate kept, bit `0` ≡
/// dropped, tail bits of the last word zero (the [`BinaryHv`] convention).
///
/// Produced by [`Dropout::sample_mask`]; consumed by the packed kernels in
/// [`crate::packed`] and, for the dense `f32` reference path, by
/// [`DropMask::apply_to_matrix`].
///
/// [`BinaryHv`]: hdc::BinaryHv
#[derive(Debug, Clone, PartialEq)]
pub struct DropMask {
    words: Vec<u64>,
    dim: usize,
    kept: usize,
    scale: f32,
}

impl DropMask {
    /// A mask that keeps every one of `dim` coordinates (scale 1) — the
    /// identity element, useful for tests.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn full(dim: usize) -> Self {
        assert!(dim > 0, "mask dimension must be non-zero");
        let mut words = vec![u64::MAX; dim.div_ceil(64)];
        if dim % 64 != 0 {
            *words.last_mut().expect("dim > 0 implies at least one word") =
                (1u64 << (dim % 64)) - 1;
        }
        DropMask {
            words,
            dim,
            kept: dim,
            scale: 1.0,
        }
    }

    /// Borrows the packed mask words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of coordinates the mask covers.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of kept (set) coordinates.
    #[must_use]
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Inverted-dropout survivor scale `1/(1−rate)`, to be applied once to
    /// the logits produced under this mask.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Whether coordinate `i` is kept.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn is_kept(&self, i: usize) -> bool {
        assert!(i < self.dim, "mask index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Zeroes the dropped columns of `x` in place **without scaling** — the
    /// dense `f32` reference for the masked packed kernels. Scaling is the
    /// caller's job, applied once to the resulting logits.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    pub fn apply_to_matrix(&self, x: &mut Matrix) {
        assert_eq!(x.cols(), self.dim, "mask width must match matrix columns");
        for r in 0..x.rows() {
            for (c, v) in x.row_mut(r).iter_mut().enumerate() {
                if (self.words[c / 64] >> (c % 64)) & 1 == 0 {
                    *v = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_rates() {
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(-0.1, 0).is_err());
        assert!(Dropout::new(0.0, 0).is_ok());
        assert!(Dropout::new(0.99, 0).is_ok());
    }

    #[test]
    fn zero_rate_is_identity() {
        let mut d = Dropout::new(0.0, 1).unwrap();
        let mut x = Matrix::from_rows(&[vec![1.0, -2.0, 3.0]]).unwrap();
        let before = x.clone();
        d.apply(&mut x);
        assert_eq!(x, before);
    }

    #[test]
    fn expected_value_is_preserved() {
        let mut d = Dropout::new(0.3, 7).unwrap();
        let n = 20_000;
        let mut x = Matrix::from_flat(1, n, vec![1.0; n]).unwrap();
        d.apply(&mut x);
        let mean: f32 = x.as_slice().iter().sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
    }

    #[test]
    fn masks_differ_between_applications() {
        let mut d = Dropout::new(0.5, 9).unwrap();
        let mut a = Matrix::from_flat(1, 256, vec![1.0; 256]).unwrap();
        let mut b = a.clone();
        d.apply(&mut a);
        d.apply(&mut b);
        assert_ne!(a, b, "consecutive masks should differ");
    }

    #[test]
    fn same_seed_reproduces_masks() {
        let mut d1 = Dropout::new(0.5, 11).unwrap();
        let mut d2 = Dropout::new(0.5, 11).unwrap();
        let mut a = Matrix::from_flat(1, 128, vec![1.0; 128]).unwrap();
        let mut b = a.clone();
        d1.apply(&mut a);
        d2.apply(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn sample_mask_none_at_rate_zero() {
        let mut d = Dropout::new(0.0, 3).unwrap();
        assert!(d.sample_mask(100).is_none());
    }

    #[test]
    fn sample_mask_counts_and_scale_are_consistent() {
        let mut d = Dropout::new(0.25, 13).unwrap();
        let mask = d.sample_mask(1000).unwrap();
        assert_eq!(mask.dim(), 1000);
        let set: usize = (0..1000).filter(|&i| mask.is_kept(i)).count();
        assert_eq!(set, mask.kept());
        assert!((500..950).contains(&set), "kept {set} of 1000 at rate 0.25");
        assert!((mask.scale() - 1.0 / 0.75).abs() < 1e-7);
        // tail bits beyond dim stay zero
        let last = *mask.words().last().unwrap();
        assert_eq!(last >> (1000 % 64), 0);
    }

    #[test]
    fn sample_mask_is_seed_reproducible() {
        let mut d1 = Dropout::new(0.5, 21).unwrap();
        let mut d2 = Dropout::new(0.5, 21).unwrap();
        let first = d1.sample_mask(300);
        assert_eq!(first, d2.sample_mask(300));
        assert_ne!(first, d1.sample_mask(300), "consecutive masks should differ");
    }

    /// The reference for `sample_mask`'s branchless build: one `if` per
    /// coordinate.
    fn reference_mask(rng: &mut Xoshiro256pp, rate: f32, dim: usize) -> (Vec<u64>, usize) {
        let mut words = vec![0u64; dim.div_ceil(64)];
        let mut kept = 0usize;
        for i in 0..dim {
            if rng.random::<f32>() >= rate {
                words[i / 64] |= 1 << (i % 64);
                kept += 1;
            }
        }
        (words, kept)
    }

    #[test]
    fn branchless_masks_match_the_per_coordinate_loop() {
        for dim in [1usize, 63, 64, 65, 1000, 10_000] {
            for rate in [0.1f32, 0.5, 0.9] {
                let seed = dim as u64 ^ u64::from(rate.to_bits());
                let mut d = Dropout::new(rate, seed).unwrap();
                let mut reference = Xoshiro256pp::seed_from_u64(seed);
                // Consecutive masks check that each draws exactly `dim`
                // numbers from the shared stream.
                for draw in 0..5 {
                    let mask = d.sample_mask(dim).unwrap();
                    let (words, kept) = reference_mask(&mut reference, rate, dim);
                    assert_eq!(
                        mask.words(),
                        &words[..],
                        "dim={dim} rate={rate} draw={draw}"
                    );
                    assert_eq!(mask.kept(), kept, "dim={dim} rate={rate} draw={draw}");
                }
            }
        }
    }

    #[test]
    fn full_mask_keeps_everything() {
        let mask = DropMask::full(130);
        assert_eq!(mask.kept(), 130);
        assert_eq!(mask.scale(), 1.0);
        assert!((0..130).all(|i| mask.is_kept(i)));
        assert_eq!(*mask.words().last().unwrap() >> 2, 0);
    }

    #[test]
    fn apply_to_matrix_zeroes_dropped_columns_without_scaling() {
        let mut d = Dropout::new(0.5, 31).unwrap();
        let mask = d.sample_mask(64).unwrap();
        let mut x = Matrix::from_flat(2, 64, vec![1.0; 128]).unwrap();
        mask.apply_to_matrix(&mut x);
        for r in 0..2 {
            for c in 0..64 {
                let expect = if mask.is_kept(c) { 1.0 } else { 0.0 };
                assert_eq!(x.get(r, c), expect);
            }
        }
    }
}
