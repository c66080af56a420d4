//! Per-dimension counters for bundling binary hypervectors, stored as
//! bit-sliced vertical planes.

use testkit::Rng;

use crate::bitvec::BinaryHv;
use crate::dim::Dim;
use crate::error::HdcError;
use crate::kernels;

/// Bundles binary hypervectors by counting `+1` votes per dimension.
///
/// This implements the `sgn(Σ Hᵢ)` of the paper's Eqs. 1 and 2: each added
/// hypervector contributes `+1` or `-1` per dimension, and
/// [`threshold`](Accumulator::threshold) takes the majority, breaking exact
/// ties randomly — the paper assumes `sgn(0)` is assigned `±1` at random.
///
/// # Representation
///
/// Only the count of `+1` votes is stored (`ones[d]`; the bipolar sum at
/// dimension `d` is `2·ones[d] − n` for `n` added vectors), and it is stored
/// **vertically**: plane `p` packs bit `p` of all `D` counters, 64 counters
/// per word, so `⌈log₂(n+1)⌉` planes of `⌈D/64⌉` words hold the exact
/// counters. Adding one packed hypervector ([`add`](Accumulator::add),
/// [`add_bound`](Accumulator::add_bound)) is a word-parallel carry ripple up
/// the planes (`t = plane ∧ c; plane ⊕= c; c = t` per plane), `O(D/64)` word
/// ops per plane touched. The ripple stops only when no word of the vector
/// still carries, so at `D = 10,000` one add climbs 7.41 planes on average
/// on the MNIST encoding profile (7.35 on ISOLET, 5.09 on PAMAP).
///
/// The bulk adds ([`add_many`](Accumulator::add_many),
/// [`add_bound_many`](Accumulator::add_bound_many)) avoid that: they feed
/// [`GROUP`](Accumulator::GROUP) inputs at a time through a Harley–Seal
/// carry-save adder tree, word by word in registers, with planes 0–2 as the
/// ones/twos/fours accumulators ([`kernels::csa_tree8_words`]). Only the
/// weight-8 carry ripples up from plane 3, once per group instead of once
/// per input.
///
/// The majority threshold is a word-parallel bit-sliced comparison of the
/// counters against `n/2` ([`kernels::bitsliced_cmp_words`]).
///
/// Counters stay exact integers, so bundling in chunks and
/// [`merge`](Accumulator::merge)-ing partials in any grouping is
/// bit-identical to one sequential pass, and the threshold tie-break RNG
/// stream is unchanged from the horizontal-counter implementation.
///
/// # Examples
///
/// ```
/// use hdc::{Accumulator, BinaryHv, Dim};
///
/// let d = Dim::new(256);
/// let mut rng = testkit::Xoshiro256pp::seed_from_u64(3);
/// let proto = BinaryHv::random(d, &mut rng);
///
/// let mut acc = Accumulator::new(d);
/// for _ in 0..5 {
///     acc.add(&proto);
/// }
/// // An odd-count bundle of identical vectors thresholds back to itself.
/// assert_eq!(acc.threshold(&mut rng), proto);
/// ```
#[derive(Debug, Clone)]
pub struct Accumulator {
    /// Plane-major bit-sliced counters: plane `p` is
    /// `planes[p·W..(p+1)·W]` for `W = dim.words()`, least significant
    /// plane first. Tail bits above `D` are zero in every plane. The top
    /// planes may be all zero (the adds pre-grow the planes they write).
    planes: Vec<u64>,
    /// Carry scratch (`W` words) reused by every add/merge ripple and as the
    /// tie-mask buffer of [`threshold_into`](Accumulator::threshold_into).
    carry: Vec<u64>,
    n: u32,
    dim: Dim,
}

impl PartialEq for Accumulator {
    /// Logical counter equality: two accumulators are equal when their
    /// dimension, count, and per-dimension counters agree (the carry scratch
    /// is working memory, not state).
    fn eq(&self, other: &Self) -> bool {
        if self.dim != other.dim || self.n != other.n {
            return false;
        }
        let (short, long) = if self.planes.len() <= other.planes.len() {
            (&self.planes, &other.planes)
        } else {
            (&other.planes, &self.planes)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for Accumulator {}

impl Accumulator {
    /// Creates an empty accumulator of dimension `D`.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Accumulator {
            planes: Vec::new(),
            carry: vec![0; dim.words()],
            n: 0,
            dim,
        }
    }

    /// The dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of hypervectors added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no hypervectors have been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of bit-planes currently held: at least
    /// `⌈log₂(max counter + 1)⌉`, and more when the adds pre-grew planes
    /// that stayed zero (any add holds plane 0, a grouped add planes 0–2).
    #[must_use]
    pub fn n_planes(&self) -> usize {
        let words = self.dim.words();
        if words == 0 {
            0
        } else {
            self.planes.len() / words
        }
    }

    /// Inputs per carry-save tree in [`add_many`](Self::add_many) and
    /// [`add_bound_many`](Self::add_bound_many); a shorter remainder is
    /// added one input at a time.
    pub const GROUP: usize = kernels::TREE_INPUTS;

    /// Materializes the low `n` planes (zero if new) so the entry kernels
    /// always have their targets.
    fn ensure_planes(&mut self, n: usize) {
        let len = n * self.dim.words();
        if self.planes.len() < len {
            self.planes.resize(len, 0);
        }
    }

    /// Continues a carry ripple from plane `start` with the carry (and its
    /// OR, `or`) already in `self.carry`, growing a new top plane if the
    /// carry survives past the last one.
    fn ripple_from(&mut self, start: usize, mut or: u64) {
        let words = self.dim.words();
        let mut q = start;
        while or != 0 {
            if q * words == self.planes.len() {
                // A fresh top plane absorbs the whole carry: plane = carry.
                self.planes.extend_from_slice(&self.carry);
                return;
            }
            let Accumulator { planes, carry, .. } = self;
            or = kernels::csa_step_words(&mut planes[q * words..(q + 1) * words], carry);
            q += 1;
        }
    }

    /// Adds one hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ; use [`try_add`](Self::try_add) for a
    /// fallible variant.
    pub fn add(&mut self, hv: &BinaryHv) {
        self.try_add(hv).expect("dimension mismatch in add");
    }

    /// Fallible [`add`](Self::add).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimMismatch`] if the dimensions differ.
    pub fn try_add(&mut self, hv: &BinaryHv) -> Result<(), HdcError> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimMismatch {
                left: self.dim.get(),
                right: hv.dim().get(),
            });
        }
        self.ensure_planes(1);
        let words = self.dim.words();
        let Accumulator { planes, carry, .. } = self;
        let or = kernels::csa_input_step_words(&mut planes[..words], hv.as_words(), carry);
        self.ripple_from(1, or);
        self.n += 1;
        Ok(())
    }

    /// Adds the bind (bipolar Hadamard product, bit-wise XNOR) of two packed
    /// hypervectors without materializing it: the XNOR feeds the carry-save
    /// ladder directly ([`kernels::csa_bind_step_words`]). This is the
    /// position∘level bind-and-bundle of the paper's Eq. 1, fused — exactly
    /// equivalent to `add(&a.bind(&b))`.
    ///
    /// # Panics
    ///
    /// Panics if either slice is not exactly `dim.words()` words. Callers
    /// pass [`BinaryHv::as_words`] of same-dimension hypervectors.
    pub fn add_bound(&mut self, a: &[u64], b: &[u64]) {
        let words = self.dim.words();
        assert_eq!(a.len(), words, "left operand must span dim words");
        assert_eq!(b.len(), words, "right operand must span dim words");
        self.ensure_planes(1);
        let Accumulator { planes, carry, .. } = self;
        let or = kernels::csa_bind_step_words(&mut planes[..words], a, b, carry);
        // The XNOR sets the tail bits above D; the entry plane absorbed them
        // (the outgoing carry is tail-clean because the old plane was).
        planes[words - 1] &= self.dim.last_word_mask();
        self.ripple_from(1, or);
        self.n += 1;
    }

    /// Adds every hypervector in `hvs`: each full group of
    /// [`GROUP`](Self::GROUP) goes through one carry-save tree
    /// ([`kernels::csa_tree8_words`]) and one ripple from plane 3, and the
    /// remainder is [`add`](Self::add)ed one by one. The counters are exact
    /// integers, so this equals adding each hypervector in turn.
    ///
    /// # Panics
    ///
    /// Panics if a dimension differs.
    pub fn add_many(&mut self, hvs: &[&BinaryHv]) {
        assert!(
            hvs.iter().all(|hv| hv.dim() == self.dim),
            "dimension mismatch in add_many"
        );
        let mut groups = hvs.chunks_exact(Self::GROUP);
        for group in &mut groups {
            let inputs: [&[u64]; Self::GROUP] = std::array::from_fn(|i| group[i].as_words());
            self.ensure_planes(3);
            let words = self.dim.words();
            let Accumulator { planes, carry, .. } = self;
            let or = kernels::csa_tree8_words(&mut planes[..3 * words], carry, &inputs);
            self.ripple_from(3, or);
            self.n += Self::GROUP as u32;
        }
        for hv in groups.remainder() {
            self.add(hv);
        }
    }

    /// [`add_bound`](Self::add_bound) for every pair in `pairs`: each full
    /// group of [`GROUP`](Self::GROUP) pairs goes through one carry-save tree
    /// with the XNOR bind fused into its loads
    /// ([`kernels::csa_tree8_bind_words`]) and one ripple from plane 3, and
    /// the remainder is added pair by pair. Exactly equivalent to calling
    /// `add_bound` on each pair in turn.
    ///
    /// # Panics
    ///
    /// Panics if any slice is not exactly `dim.words()` words.
    pub fn add_bound_many(&mut self, pairs: &[(&[u64], &[u64])]) {
        let mut groups = pairs.chunks_exact(Self::GROUP);
        for group in &mut groups {
            let group: &[(&[u64], &[u64]); Self::GROUP] =
                group.try_into().expect("chunks_exact yields full groups");
            self.ensure_planes(3);
            let words = self.dim.words();
            let mask = self.dim.last_word_mask();
            let Accumulator { planes, carry, .. } = self;
            let or = kernels::csa_tree8_bind_words(&mut planes[..3 * words], carry, group, mask);
            self.ripple_from(3, or);
            self.n += Self::GROUP as u32;
        }
        for (a, b) in groups.remainder() {
            self.add_bound(a, b);
        }
    }

    /// The bipolar coordinate sum at dimension `i`: `Σ hvⱼ[i] ∈ [-n, n]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= D`.
    #[must_use]
    pub fn sum(&self, i: usize) -> i64 {
        assert!(i < self.dim.get(), "dimension index out of range");
        let words = self.dim.words();
        let (w, b) = (i / 64, i % 64);
        let mut ones: u64 = 0;
        for p in 0..self.n_planes() {
            ones |= ((self.planes[p * words + w] >> b) & 1) << p;
        }
        2 * ones as i64 - i64::from(self.n)
    }

    /// Writes the per-dimension `+1`-vote counts (`ones[i] ∈ [0, n]`) into
    /// `out`, one `u32` per dimension. The bipolar sum at dimension `i` is
    /// `2·out[i] − n`.
    ///
    /// This is the bulk companion of [`sum`](Self::sum): one pass per plane
    /// over the packed words instead of a bit-by-bit reconstruction per
    /// dimension, so extracting all `D` counters costs `O(D/64 · planes)`
    /// word visits plus one increment per set plane bit. (A branchless
    /// 64-lane bit-spread was measured no faster here — set-bit density in
    /// the low planes is what it is, and the walk skips the sparse high
    /// planes for free.)
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != D`.
    pub fn counts_into(&self, out: &mut [u32]) {
        assert_eq!(
            out.len(),
            self.dim.get(),
            "counts output must span all dimensions"
        );
        out.fill(0);
        let words = self.dim.words();
        for p in 0..self.n_planes() {
            let weight = 1u32 << p;
            for (w, &word) in self.planes[p * words..(p + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    out[w * 64 + b] += weight;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Computes the strict-majority and exact-tie masks for every dimension:
    /// after the call, bit `i` of `gt` is set iff `2·ones[i] > n` and bit
    /// `i` of `ties` iff `2·ones[i] == n`. Both comparisons reduce to the
    /// bit-sliced compare of the counters against `k = ⌊n/2⌋`: `C > k` is
    /// strict majority for either parity, and `C == k` is a tie exactly when
    /// `n` is even.
    fn majority_ties_into(&self, gt: &mut [u64], ties: &mut [u64]) {
        let words = self.dim.words();
        debug_assert_eq!(gt.len(), words);
        debug_assert_eq!(ties.len(), words);
        gt.fill(0);
        ties.fill(u64::MAX);
        ties[words - 1] = self.dim.last_word_mask();
        kernels::bitsliced_cmp_words(&self.planes, words, u64::from(self.n / 2), gt, ties);
        if self.n % 2 == 1 {
            // Odd counts cannot tie; `eq` lanes hold 2C == n − 1 < n.
            ties.fill(0);
        }
    }

    /// Majority-thresholds the bundle into a binary hypervector, breaking
    /// `sgn(0)` ties with `rng` as the paper prescribes.
    ///
    /// Ties can only occur when an even number of hypervectors was added.
    ///
    /// The majority comparison is a word-parallel bit-sliced compare; RNG
    /// draws happen in a separate sparse pass over the tie mask. Ties are
    /// visited in ascending dimension order, so the tie-break stream is
    /// identical to a per-bit scan and golden vectors are unaffected.
    ///
    /// Allocates the output and two mask buffers; the hot encode loops use
    /// [`threshold_into`](Self::threshold_into), which reuses caller and
    /// internal scratch instead.
    #[must_use]
    pub fn threshold<R: Rng + ?Sized>(&self, rng: &mut R) -> BinaryHv {
        let words = self.dim.words();
        let mut gt = vec![0u64; words];
        let mut ties = vec![0u64; words];
        self.majority_ties_into(&mut gt, &mut ties);
        Self::break_ties(&mut gt, &ties, rng);
        BinaryHv::from_raw_words(gt, self.dim)
    }

    /// [`threshold`](Self::threshold) writing into a caller-owned
    /// hypervector, with the tie mask held in the accumulator's own carry
    /// scratch — no allocation. Identical output and tie-break RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different dimension.
    pub fn threshold_into<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut BinaryHv) {
        assert_eq!(
            out.dim(),
            self.dim,
            "threshold output must match the accumulator dimension"
        );
        let Accumulator {
            planes,
            carry,
            n,
            dim,
        } = self;
        let words = dim.words();
        let gt = out.as_mut_words();
        gt.fill(0);
        carry.fill(u64::MAX);
        carry[words - 1] = dim.last_word_mask();
        kernels::bitsliced_cmp_words(planes, words, u64::from(*n / 2), gt, carry);
        if *n % 2 == 1 {
            carry.fill(0);
        }
        Self::break_ties(gt, carry, rng);
    }

    /// The sparse tie pass: flips a fair coin for every tie bit, ascending
    /// dimension order — the draw sequence every golden vector is pinned to.
    fn break_ties<R: Rng + ?Sized>(out: &mut [u64], ties: &[u64], rng: &mut R) {
        for (word, &tie_word) in out.iter_mut().zip(ties) {
            let mut ties_left = tie_word;
            while ties_left != 0 {
                let b = ties_left.trailing_zeros();
                *word |= u64::from(rng.random::<bool>()) << b;
                ties_left &= ties_left - 1;
            }
        }
    }

    /// Deterministic threshold: `sgn(0)` resolves to `+1` (the convention of
    /// the paper's Eq. 8).
    #[must_use]
    pub fn threshold_deterministic(&self) -> BinaryHv {
        let words = self.dim.words();
        let mut gt = vec![0u64; words];
        let mut ties = vec![0u64; words];
        self.majority_ties_into(&mut gt, &mut ties);
        for (word, &tie_word) in gt.iter_mut().zip(&ties) {
            *word |= tie_word;
        }
        BinaryHv::from_raw_words(gt, self.dim)
    }

    /// Merges another bundle into this one, exactly as if every hypervector
    /// added to `other` had been [`add`](Self::add)ed here instead.
    ///
    /// Per-dimension vote counts are exact integer sums, so merging is
    /// associative and commutative with no rounding: bundling a corpus in
    /// chunks and merging the partials in any grouping yields the same
    /// accumulator as one sequential pass. This is what makes the pooled
    /// per-class bundles bit-identical at every thread count.
    /// Each of `other`'s planes ripples in at its own weight, so the merge
    /// costs `O(D/64 · planes)` word ops, not a counter-by-counter sum.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ; use [`try_merge`](Self::try_merge)
    /// for a fallible variant.
    pub fn merge(&mut self, other: &Accumulator) {
        self.try_merge(other).expect("dimension mismatch in merge");
    }

    /// Fallible [`merge`](Self::merge).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimMismatch`] if the dimensions differ.
    pub fn try_merge(&mut self, other: &Accumulator) -> Result<(), HdcError> {
        if other.dim != self.dim {
            return Err(HdcError::DimMismatch {
                left: self.dim.get(),
                right: other.dim.get(),
            });
        }
        let words = self.dim.words();
        while self.planes.len() < other.planes.len() {
            let len = self.planes.len();
            self.planes.resize(len + words, 0);
        }
        for p in 0..other.n_planes() {
            let src = &other.planes[p * words..(p + 1) * words];
            let or = {
                let Accumulator { planes, carry, .. } = self;
                kernels::csa_input_step_words(&mut planes[p * words..(p + 1) * words], src, carry)
            };
            self.ripple_from(p + 1, or);
        }
        self.n += other.n;
        Ok(())
    }

    /// Clears the accumulator for reuse without releasing its plane or
    /// scratch capacity — the reset of the zero-alloc encode loops.
    pub fn clear(&mut self) {
        self.planes.clear();
        self.n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(11)
    }

    #[test]
    fn empty_accumulator_reports_empty() {
        let acc = Accumulator::new(Dim::new(10));
        assert!(acc.is_empty());
        assert_eq!(acc.len(), 0);
        assert_eq!(acc.n_planes(), 0);
    }

    #[test]
    fn majority_of_identical_vectors_is_the_vector() {
        let mut r = rng();
        let d = Dim::new(512);
        let hv = BinaryHv::random(d, &mut r);
        let mut acc = Accumulator::new(d);
        for _ in 0..7 {
            acc.add(&hv);
        }
        assert_eq!(acc.threshold(&mut r), hv);
        assert_eq!(acc.threshold_deterministic(), hv);
        // counters reach 7 on set dims: three planes
        assert_eq!(acc.n_planes(), 3);
    }

    #[test]
    fn majority_vote_across_three_vectors() {
        // dims: v1 = ++-, v2 = +--, v3 = +++  → majority = ++-
        let v1 = BinaryHv::from_bools(&[true, true, false]);
        let v2 = BinaryHv::from_bools(&[true, false, false]);
        let v3 = BinaryHv::from_bools(&[true, true, true]);
        let mut acc = Accumulator::new(Dim::new(3));
        acc.add(&v1);
        acc.add(&v2);
        acc.add(&v3);
        assert_eq!(acc.sum(0), 3);
        assert_eq!(acc.sum(1), 1);
        assert_eq!(acc.sum(2), -1);
        let out = acc.threshold(&mut rng());
        assert_eq!(out, BinaryHv::from_bools(&[true, true, false]));
    }

    #[test]
    fn tie_breaking_is_random_but_only_on_ties() {
        let d = Dim::new(2048);
        let mut r = rng();
        let a = BinaryHv::random(d, &mut r);
        let b = a.negated();
        let mut acc = Accumulator::new(d);
        acc.add(&a);
        acc.add(&b);
        // Every dimension sums to zero: thresholds differ between rng draws
        // but each output bit is a coin flip.
        let t1 = acc.threshold(&mut r);
        let t2 = acc.threshold(&mut r);
        assert_ne!(t1, t2, "2048 coin flips should not collide");
        let ones = t1.count_ones();
        assert!(
            (ones as f64 - 1024.0).abs() < 150.0,
            "tie-broken bits should be ~balanced, got {ones}"
        );
        // Deterministic variant resolves all ties to +1.
        assert_eq!(acc.threshold_deterministic(), BinaryHv::ones(d));
    }

    #[test]
    fn add_rejects_dim_mismatch() {
        let mut acc = Accumulator::new(Dim::new(8));
        let hv = BinaryHv::zeros(Dim::new(9));
        assert!(acc.try_add(&hv).is_err());
    }

    #[test]
    fn clear_resets_state() {
        let d = Dim::new(16);
        let mut r = rng();
        let mut acc = Accumulator::new(d);
        acc.add(&BinaryHv::random(d, &mut r));
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.sum(0), 0);
        assert_eq!(acc, Accumulator::new(d));
    }

    #[test]
    fn merge_equals_sequential_adds() {
        let d = Dim::new(300);
        let mut r = rng();
        let hvs: Vec<BinaryHv> = (0..10).map(|_| BinaryHv::random(d, &mut r)).collect();
        let mut sequential = Accumulator::new(d);
        for hv in &hvs {
            sequential.add(hv);
        }
        // Bundle in three uneven chunks and merge the partials in order.
        let mut merged = Accumulator::new(d);
        for chunk in [&hvs[0..3], &hvs[3..4], &hvs[4..10]] {
            let mut part = Accumulator::new(d);
            for hv in chunk {
                part.add(hv);
            }
            merged.merge(&part);
        }
        assert_eq!(merged, sequential);
        assert_eq!(merged.len(), 10);
        // merging an empty accumulator is the identity
        merged.merge(&Accumulator::new(d));
        assert_eq!(merged, sequential);
        assert!(merged.try_merge(&Accumulator::new(Dim::new(5))).is_err());
    }

    #[test]
    fn threshold_matches_per_bit_reference_and_rng_stream() {
        // Dimensions straddling a word boundary plus a ragged tail, with an
        // even count so ties actually occur.
        for d in [Dim::new(63), Dim::new(64), Dim::new(130), Dim::new(517)] {
            let mut r = rng();
            let hvs: Vec<BinaryHv> = (0..6).map(|_| BinaryHv::random(d, &mut r)).collect();
            let mut acc = Accumulator::new(d);
            for hv in &hvs {
                acc.add(hv);
            }
            let mut fast_rng = Xoshiro256pp::seed_from_u64(99);
            let mut ref_rng = fast_rng.clone();
            let fast = acc.threshold(&mut fast_rng);
            let reference = BinaryHv::from_fn(d, |i| match acc.sum(i).cmp(&0) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => ref_rng.random::<bool>(),
            });
            assert_eq!(fast, reference, "D={}", d.get());
            // Same number of draws, in the same order: the streams align.
            assert_eq!(
                fast_rng.random::<u64>(),
                ref_rng.random::<u64>(),
                "tie-break RNG stream diverged at D={}",
                d.get()
            );
            assert_eq!(
                acc.threshold_deterministic(),
                BinaryHv::from_fn(d, |i| acc.sum(i) >= 0),
                "deterministic D={}",
                d.get()
            );
        }
    }

    #[test]
    fn threshold_into_matches_threshold() {
        let d = Dim::new(517);
        let mut r = rng();
        let mut acc = Accumulator::new(d);
        for _ in 0..6 {
            acc.add(&BinaryHv::random(d, &mut r));
        }
        let mut rng_a = Xoshiro256pp::seed_from_u64(7);
        let mut rng_b = rng_a.clone();
        let fresh = acc.threshold(&mut rng_a);
        let mut reused = BinaryHv::ones(d); // stale contents must be overwritten
        acc.threshold_into(&mut rng_b, &mut reused);
        assert_eq!(fresh, reused);
        assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>(), "stream align");
    }

    #[test]
    #[should_panic(expected = "must match the accumulator dimension")]
    fn threshold_into_rejects_dim_mismatch() {
        let mut acc = Accumulator::new(Dim::new(64));
        let mut out = BinaryHv::zeros(Dim::new(65));
        acc.threshold_into(&mut rng(), &mut out);
    }

    #[test]
    fn add_bound_equals_add_of_bind() {
        let mut r = rng();
        for d in [Dim::new(63), Dim::new(64), Dim::new(517)] {
            let pairs: Vec<(BinaryHv, BinaryHv)> = (0..5)
                .map(|_| (BinaryHv::random(d, &mut r), BinaryHv::random(d, &mut r)))
                .collect();
            let mut fused = Accumulator::new(d);
            let mut reference = Accumulator::new(d);
            for (a, b) in &pairs {
                fused.add_bound(a.as_words(), b.as_words());
                reference.add(&a.bind(b));
            }
            assert_eq!(fused, reference, "D={}", d.get());
            for i in 0..d.get() {
                assert_eq!(fused.sum(i), reference.sum(i), "D={} dim {i}", d.get());
            }
        }
    }

    #[test]
    fn counts_into_matches_sum() {
        for d in [Dim::new(1), Dim::new(63), Dim::new(64), Dim::new(517)] {
            let mut r = rng();
            let mut acc = Accumulator::new(d);
            for _ in 0..9 {
                acc.add(&BinaryHv::random(d, &mut r));
            }
            let mut counts = vec![u32::MAX; d.get()]; // stale contents overwritten
            acc.counts_into(&mut counts);
            for (i, &c) in counts.iter().enumerate() {
                assert_eq!(
                    2 * i64::from(c) - acc.len() as i64,
                    acc.sum(i),
                    "D={} dim {i}",
                    d.get()
                );
            }
            // Empty accumulator reports all-zero counts.
            acc.clear();
            acc.counts_into(&mut counts);
            assert!(counts.iter().all(|&c| c == 0), "D={}", d.get());
        }
    }

    #[test]
    #[should_panic(expected = "must span all dimensions")]
    fn counts_into_rejects_wrong_len() {
        let acc = Accumulator::new(Dim::new(64));
        acc.counts_into(&mut vec![0u32; 63]);
    }

    #[test]
    fn sum_matches_bipolar_arithmetic() {
        let d = Dim::new(64);
        let mut r = rng();
        let hvs: Vec<BinaryHv> = (0..9).map(|_| BinaryHv::random(d, &mut r)).collect();
        let mut acc = Accumulator::new(d);
        for hv in &hvs {
            acc.add(hv);
        }
        for i in 0..64 {
            let expect: i64 = hvs.iter().map(|h| i64::from(h.bipolar(i))).sum();
            assert_eq!(acc.sum(i), expect, "dim {i}");
        }
    }
}
