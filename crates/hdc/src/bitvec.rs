//! Bit-packed bipolar hypervectors.

use std::fmt;

use testkit::Rng;

use crate::dim::Dim;
use crate::error::HdcError;

/// A bipolar hypervector in `{-1, +1}^D`, stored one bit per dimension.
///
/// Bit `1` represents bipolar `+1` and bit `0` represents bipolar `-1`.
/// With this convention the Hadamard (element-wise) product of two bipolar
/// vectors is the **XNOR** of their bit patterns, which is what [`bind`]
/// computes; the Hamming distance is a word-wise XOR + popcount.
///
/// Invariant: the unused high bits of the final storage word are always zero,
/// so popcounts never see garbage.
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, Dim};
///
/// let mut rng = testkit::Xoshiro256pp::seed_from_u64(1);
/// let a = BinaryHv::random(Dim::new(4096), &mut rng);
/// let b = BinaryHv::random(Dim::new(4096), &mut rng);
///
/// // Random hypervectors are quasi-orthogonal: normalized Hamming ≈ 0.5.
/// let h = a.normalized_hamming(&b);
/// assert!((h - 0.5).abs() < 0.05);
///
/// // Binding is its own inverse: (a ⊛ b) ⊛ b == a.
/// let bound = a.bind(&b);
/// assert_eq!(bound.bind(&b), a);
/// ```
///
/// [`bind`]: BinaryHv::bind
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BinaryHv {
    words: Vec<u64>,
    dim: Dim,
}

impl BinaryHv {
    /// Creates the all `-1` hypervector (every bit zero).
    #[must_use]
    pub fn zeros(dim: Dim) -> Self {
        BinaryHv {
            words: vec![0; dim.words()],
            dim,
        }
    }

    /// Creates the all `+1` hypervector (every bit one).
    #[must_use]
    pub fn ones(dim: Dim) -> Self {
        let mut words = vec![u64::MAX; dim.words()];
        if let Some(last) = words.last_mut() {
            *last &= dim.last_word_mask();
        }
        BinaryHv { words, dim }
    }

    /// Wraps packed words produced by a word-level kernel.
    ///
    /// Callers must supply exactly `dim.words()` words with every bit at or
    /// above `dim` cleared — the crate-wide tail invariant.
    pub(crate) fn from_raw_words(words: Vec<u64>, dim: Dim) -> Self {
        debug_assert_eq!(words.len(), dim.words());
        debug_assert_eq!(
            words.last().copied().unwrap_or(0) & !dim.last_word_mask(),
            0,
            "tail bits above dim must be zero"
        );
        BinaryHv { words, dim }
    }

    /// Wraps externally supplied packed words (e.g. deserialized planes),
    /// validating the storage invariants instead of assuming them.
    ///
    /// # Errors
    ///
    /// Rejects a word count other than `dim.words()` and any set bit at or
    /// above `dim` in the final word (the crate-wide tail invariant).
    pub fn from_words(words: Vec<u64>, dim: Dim) -> Result<Self, HdcError> {
        if words.len() != dim.words() {
            return Err(HdcError::InvalidConfig(format!(
                "{} packed words cannot hold {dim} (expected {})",
                words.len(),
                dim.words()
            )));
        }
        if words.last().copied().unwrap_or(0) & !dim.last_word_mask() != 0 {
            return Err(HdcError::InvalidConfig(format!(
                "padding bits beyond {dim} are set in the final word"
            )));
        }
        Ok(BinaryHv { words, dim })
    }

    /// Samples a uniformly random hypervector.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(dim: Dim, rng: &mut R) -> Self {
        let mut words: Vec<u64> = (0..dim.words()).map(|_| rng.random()).collect();
        if let Some(last) = words.last_mut() {
            *last &= dim.last_word_mask();
        }
        BinaryHv { words, dim }
    }

    /// Builds a hypervector from per-dimension booleans (`true` ≡ `+1`).
    ///
    /// # Examples
    ///
    /// ```
    /// use hdc::BinaryHv;
    /// let hv = BinaryHv::from_bools(&[true, false, true]);
    /// assert_eq!(hv.dim().get(), 3);
    /// assert!(hv.get(0) && !hv.get(1) && hv.get(2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let dim = Dim::new(bits.len());
        let mut hv = BinaryHv::zeros(dim);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                hv.set(i, true);
            }
        }
        hv
    }

    /// Builds a hypervector by evaluating `f` at every dimension index.
    #[must_use]
    pub fn from_fn<F: FnMut(usize) -> bool>(dim: Dim, mut f: F) -> Self {
        let mut hv = BinaryHv::zeros(dim);
        for i in 0..dim.get() {
            if f(i) {
                hv.set(i, true);
            }
        }
        hv
    }

    /// The dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Borrows the underlying packed words (low bit of word 0 is dimension 0).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutably borrows the packed words for in-place kernel output
    /// (e.g. [`crate::Accumulator::threshold_into`]). Crate-internal: callers
    /// must preserve the zero-tail invariant above `D`.
    pub(crate) fn as_mut_words(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Returns the bit at dimension `i` (`true` ≡ bipolar `+1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= D`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.dim.get(), "dimension index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= D`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.dim.get(), "dimension index out of range");
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips the bit at dimension `i` (bipolar negation of one coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `i >= D`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.dim.get(), "dimension index out of range");
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Bipolar value at dimension `i`: `+1` or `-1`.
    #[must_use]
    pub fn bipolar(&self, i: usize) -> i32 {
        if self.get(i) {
            1
        } else {
            -1
        }
    }

    /// Number of `+1` coordinates.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        crate::kernels::popcount_words(&self.words)
    }

    /// Element-wise bipolar negation (`-H`).
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        if let Some(last) = words.last_mut() {
            *last &= self.dim.last_word_mask();
        }
        BinaryHv {
            words,
            dim: self.dim,
        }
    }

    /// Binds two hypervectors: the bipolar Hadamard product (bit-wise XNOR).
    ///
    /// Binding is commutative, associative, and self-inverse; it is the `∘`
    /// of the paper's Eq. 1.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ; use [`try_bind`](Self::try_bind) for
    /// a fallible variant.
    #[must_use]
    pub fn bind(&self, other: &Self) -> Self {
        self.try_bind(other).expect("dimension mismatch in bind")
    }

    /// Fallible [`bind`](Self::bind).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimMismatch`] if the dimensions differ.
    pub fn try_bind(&self, other: &Self) -> Result<Self, HdcError> {
        self.check_dim(other)?;
        let mut words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| !(a ^ b))
            .collect();
        if let Some(last) = words.last_mut() {
            *last &= self.dim.last_word_mask();
        }
        Ok(BinaryHv {
            words,
            dim: self.dim,
        })
    }

    /// In-place [`bind`](Self::bind), reusing this vector's storage.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn bind_assign(&mut self, other: &Self) {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch in bind_assign: {} vs {}",
            self.dim, other.dim
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a = !(*a ^ b);
        }
        if let Some(last) = self.words.last_mut() {
            *last &= self.dim.last_word_mask();
        }
    }

    /// Raw (un-normalized) Hamming distance: number of differing coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ; use
    /// [`try_hamming`](Self::try_hamming) for a fallible variant.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        self.try_hamming(other)
            .expect("dimension mismatch in hamming")
    }

    /// Fallible [`hamming`](Self::hamming).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimMismatch`] if the dimensions differ.
    pub fn try_hamming(&self, other: &Self) -> Result<usize, HdcError> {
        self.check_dim(other)?;
        Ok(crate::kernels::hamming_words(&self.words, &other.words))
    }

    /// Normalized Hamming distance `|H₁ ≠ H₂| / D ∈ [0, 1]` (the paper's
    /// `Hamm` operator).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        self.hamming(other) as f64 / self.dim.get() as f64
    }

    /// Bipolar dot product `H₁ᵀH₂ = D − 2·hamming ∈ [−D, D]`.
    ///
    /// This is the BNN pre-activation `En(x)ᵀ c_k` of the paper's Eq. 6.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn dot(&self, other: &Self) -> i64 {
        self.dim.get() as i64 - 2 * self.hamming(other) as i64
    }

    /// Cosine similarity `dot / D ∈ [−1, 1]`; equals
    /// `1 − 2·normalized_hamming` (paper Sec. 3.1).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn cosine(&self, other: &Self) -> f64 {
        self.dot(other) as f64 / self.dim.get() as f64
    }

    /// Cyclic rotation by `k` positions (the `ρ` permutation of N-gram
    /// encoding): output dimension `(i + k) mod D` takes input dimension `i`.
    ///
    /// Computed word-at-a-time as the big-integer identity
    /// `((x << k) | (x >> (D − k))) mod 2^D`, stitching each word from the
    /// two source words that straddle it — ~64× fewer operations than the
    /// per-bit copy, which matters for N-gram encoding (one rotation per
    /// window element).
    #[must_use]
    pub fn rotated(&self, k: usize) -> Self {
        let d = self.dim.get();
        let k = k % d;
        if k == 0 {
            return self.clone();
        }
        let nw = self.dim.words();
        let mut out = BinaryHv::zeros(self.dim);
        // Low part: x << k fills output bits [k, D). Bits pushed past D land
        // in the last word only (D > 64·(nw−1)) and are masked off below.
        let (ws, bs) = (k / 64, k % 64);
        for w in ws..nw {
            let lo = self.words[w - ws] << bs;
            let carry = if bs > 0 && w > ws {
                self.words[w - ws - 1] >> (64 - bs)
            } else {
                0
            };
            out.words[w] = lo | carry;
        }
        // High part: x >> (D − k) wraps input bits [D − k, D) into output
        // bits [0, k). Tail bits above D are zero, so nothing extra leaks in.
        let m = d - k;
        let (ws, bs) = (m / 64, m % 64);
        for w in 0..nw - ws {
            let hi = self.words[w + ws] >> bs;
            let carry = if bs > 0 && w + ws + 1 < nw {
                self.words[w + ws + 1] << (64 - bs)
            } else {
                0
            };
            out.words[w] |= hi | carry;
        }
        if let Some(last) = out.words.last_mut() {
            *last &= self.dim.last_word_mask();
        }
        out
    }

    /// Truncates to the first `new_dim` dimensions.
    ///
    /// HDC degrades gracefully under truncation (the information is spread
    /// evenly across dimensions), which is the basis of post-training model
    /// shrinking — see the paper's Fig. 6 dimension/accuracy trade-off.
    ///
    /// # Panics
    ///
    /// Panics if `new_dim > D` (truncation cannot extend).
    #[must_use]
    pub fn truncated(&self, new_dim: Dim) -> Self {
        assert!(
            new_dim.get() <= self.dim.get(),
            "cannot truncate {} up to {}",
            self.dim,
            new_dim
        );
        let mut words = self.words[..new_dim.words()].to_vec();
        if let Some(last) = words.last_mut() {
            *last &= new_dim.last_word_mask();
        }
        BinaryHv {
            words,
            dim: new_dim,
        }
    }

    /// Projects onto a dimension subset, overwriting every bit of `out`:
    /// bit `j` of `out` becomes bit `dims[j]` of `self`.
    ///
    /// `dims` must be strictly increasing, as every selection a distilled
    /// model stores is, so the kept bits of one source word land next to
    /// each other in the output: each source word is read once, its kept
    /// bits extracted by a loop over the word's selection mask, and the run
    /// ORed into at most two output words.
    ///
    /// # Panics
    ///
    /// Panics if `out.dim()` differs from `dims.len()`, `dims` is not
    /// strictly increasing, or any index is out of range.
    pub fn project_into(&self, dims: &[u32], out: &mut BinaryHv) {
        assert_eq!(out.dim.get(), dims.len(), "one output bit per kept dim");
        assert!(
            dims.windows(2).all(|w| w[0] < w[1]),
            "selection dims must be strictly increasing"
        );
        if let Some(&last) = dims.last() {
            assert!((last as usize) < self.dim.get(), "dimension index out of range");
        }
        out.words.fill(0);
        let mut written = 0;
        let mut rest = dims;
        while let Some(&first) = rest.first() {
            let w = first as usize / 64;
            let run = rest.partition_point(|&d| d as usize / 64 == w);
            let mask = rest[..run].iter().fold(0u64, |m, &d| m | 1 << (d % 64));
            let bits = gather_bits(self.words[w], mask);
            let (ow, shift) = (written / 64, written % 64);
            out.words[ow] |= bits << shift;
            if shift + run > 64 {
                out.words[ow + 1] |= bits >> (64 - shift);
            }
            written += run;
            rest = &rest[run..];
        }
    }

    /// Writes the bipolar values (`±1.0`) into `out`, for building dense
    /// training batches.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != D`.
    pub fn write_bipolar_f32(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim.get(), "output buffer length must be D");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = if (self.words[i / 64] >> (i % 64)) & 1 == 1 {
                1.0
            } else {
                -1.0
            };
        }
    }

    /// Returns the bipolar values as a freshly allocated vector.
    #[must_use]
    pub fn to_bipolar_f32(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dim.get()];
        self.write_bipolar_f32(&mut out);
        out
    }

    fn check_dim(&self, other: &Self) -> Result<(), HdcError> {
        if self.dim != other.dim {
            return Err(HdcError::DimMismatch {
                left: self.dim.get(),
                right: other.dim.get(),
            });
        }
        Ok(())
    }
}

/// The bits of `word` at the set bits of `mask`, in ascending order from
/// bit 0 up: a portable `pext`, one iteration per kept bit.
fn gather_bits(word: u64, mut mask: u64) -> u64 {
    let mut out = 0;
    let mut k = 0;
    while mask != 0 {
        out |= ((word >> mask.trailing_zeros()) & 1) << k;
        mask &= mask - 1;
        k += 1;
    }
    out
}

/// The packed words, so the blocked kernels take hypervector slices as is.
impl AsRef<[u64]> for BinaryHv {
    fn as_ref(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BinaryHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BinaryHv(D={}, ones={}", self.dim, self.count_ones())?;
        let preview: String = (0..self.dim.get().min(16))
            .map(|i| if self.get(i) { '+' } else { '-' })
            .collect();
        write!(f, ", [{preview}…])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(0xDEAD_BEEF)
    }

    #[test]
    fn zeros_and_ones_counts() {
        let d = Dim::new(100);
        assert_eq!(BinaryHv::zeros(d).count_ones(), 0);
        assert_eq!(BinaryHv::ones(d).count_ones(), 100);
    }

    #[test]
    fn tail_bits_stay_zero() {
        let d = Dim::new(70); // 6 bits used in word 1
        let ones = BinaryHv::ones(d);
        assert_eq!(ones.as_words()[1], (1u64 << 6) - 1);
        let mut r = rng();
        let h = BinaryHv::random(d, &mut r);
        assert_eq!(h.as_words()[1] & !d.last_word_mask(), 0);
        let neg = h.negated();
        assert_eq!(neg.as_words()[1] & !d.last_word_mask(), 0);
        let bound = h.bind(&neg);
        assert_eq!(bound.as_words()[1] & !d.last_word_mask(), 0);
    }

    #[test]
    fn get_set_flip_roundtrip() {
        let mut hv = BinaryHv::zeros(Dim::new(130));
        hv.set(0, true);
        hv.set(129, true);
        assert!(hv.get(0) && hv.get(129) && !hv.get(64));
        hv.flip(129);
        assert!(!hv.get(129));
        assert_eq!(hv.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let hv = BinaryHv::zeros(Dim::new(8));
        let _ = hv.get(8);
    }

    #[test]
    fn bind_is_bipolar_product() {
        let mut r = rng();
        let d = Dim::new(257);
        let a = BinaryHv::random(d, &mut r);
        let b = BinaryHv::random(d, &mut r);
        let bound = a.bind(&b);
        for i in 0..d.get() {
            assert_eq!(bound.bipolar(i), a.bipolar(i) * b.bipolar(i), "dim {i}");
        }
    }

    #[test]
    fn bind_identity_is_all_ones() {
        let mut r = rng();
        let d = Dim::new(128);
        let a = BinaryHv::random(d, &mut r);
        assert_eq!(a.bind(&BinaryHv::ones(d)), a);
        // self-binding yields the multiplicative identity
        assert_eq!(a.bind(&a), BinaryHv::ones(d));
    }

    #[test]
    fn bind_assign_matches_bind() {
        let mut r = rng();
        let d = Dim::new(100);
        let a = BinaryHv::random(d, &mut r);
        let b = BinaryHv::random(d, &mut r);
        let mut c = a.clone();
        c.bind_assign(&b);
        assert_eq!(c, a.bind(&b));
    }

    #[test]
    fn try_bind_rejects_dim_mismatch() {
        let a = BinaryHv::zeros(Dim::new(64));
        let b = BinaryHv::zeros(Dim::new(65));
        assert_eq!(
            a.try_bind(&b),
            Err(HdcError::DimMismatch {
                left: 64,
                right: 65
            })
        );
        assert!(a.try_hamming(&b).is_err());
    }

    #[test]
    fn hamming_against_negation_is_d() {
        let mut r = rng();
        let d = Dim::new(1000);
        let a = BinaryHv::random(d, &mut r);
        assert_eq!(a.hamming(&a.negated()), 1000);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.dot(&a), 1000);
        assert_eq!(a.dot(&a.negated()), -1000);
    }

    #[test]
    fn cosine_hamming_identity() {
        // cosine = 1 - 2 * normalized_hamming (paper Sec. 3.1)
        let mut r = rng();
        let d = Dim::new(512);
        let a = BinaryHv::random(d, &mut r);
        let b = BinaryHv::random(d, &mut r);
        let cos = a.cosine(&b);
        let ham = a.normalized_hamming(&b);
        assert!((cos - (1.0 - 2.0 * ham)).abs() < 1e-12);
    }

    #[test]
    fn random_vectors_are_quasi_orthogonal() {
        let mut r = rng();
        let d = Dim::new(10_000);
        let a = BinaryHv::random(d, &mut r);
        let b = BinaryHv::random(d, &mut r);
        let h = a.normalized_hamming(&b);
        assert!((h - 0.5).abs() < 0.03, "normalized hamming {h} not ≈ 0.5");
    }

    #[test]
    fn rotation_preserves_ones_and_composes() {
        let mut r = rng();
        let d = Dim::new(99);
        let a = BinaryHv::random(d, &mut r);
        let rot = a.rotated(13);
        assert_eq!(rot.count_ones(), a.count_ones());
        // rotating by D is the identity
        assert_eq!(a.rotated(99), a);
        // composition: rot(k1) then rot(k2) == rot(k1+k2)
        assert_eq!(a.rotated(13).rotated(20), a.rotated(33));
        // a rotated vector is quasi-orthogonal to the original for random a
        for i in 0..d.get() {
            assert_eq!(rot.get((i + 13) % 99), a.get(i));
        }
    }

    #[test]
    fn bipolar_f32_roundtrip() {
        let mut r = rng();
        let d = Dim::new(130);
        let a = BinaryHv::random(d, &mut r);
        let f = a.to_bipolar_f32();
        assert_eq!(f.len(), 130);
        for (i, &v) in f.iter().enumerate() {
            assert_eq!(v, if a.get(i) { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn truncation_preserves_prefix_bits() {
        let mut r = rng();
        let a = BinaryHv::random(Dim::new(200), &mut r);
        let t = a.truncated(Dim::new(70));
        assert_eq!(t.dim(), Dim::new(70));
        for i in 0..70 {
            assert_eq!(t.get(i), a.get(i));
        }
        // tail invariant holds after truncation
        assert_eq!(t.as_words()[1] & !Dim::new(70).last_word_mask(), 0);
        // truncating to the same dimension is the identity
        assert_eq!(a.truncated(Dim::new(200)), a);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncation_rejects_extension() {
        let a = BinaryHv::zeros(Dim::new(8));
        let _ = a.truncated(Dim::new(9));
    }

    #[test]
    #[should_panic(expected = "dimension index out of range")]
    fn projection_rejects_an_index_in_the_tail_word() {
        // 70 sits in the last word of D = 65, above D
        let a = BinaryHv::ones(Dim::new(65));
        a.project_into(&[0, 70], &mut BinaryHv::zeros(Dim::new(2)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn projection_rejects_a_repeated_dim() {
        let a = BinaryHv::ones(Dim::new(65));
        a.project_into(&[3, 3], &mut BinaryHv::zeros(Dim::new(2)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn projection_rejects_a_decreasing_selection() {
        let a = BinaryHv::ones(Dim::new(65));
        a.project_into(&[64, 0], &mut BinaryHv::zeros(Dim::new(2)));
    }

    #[test]
    fn from_fn_matches_predicate() {
        let hv = BinaryHv::from_fn(Dim::new(50), |i| i % 3 == 0);
        for i in 0..50 {
            assert_eq!(hv.get(i), i % 3 == 0);
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let hv = BinaryHv::zeros(Dim::new(8));
        assert!(!format!("{hv:?}").is_empty());
    }
}
