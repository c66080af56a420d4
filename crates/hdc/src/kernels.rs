//! Word-level XNOR/popcount compute kernels over packed bit slices.
//!
//! These free functions are the single source of truth for the arithmetic
//! identity the whole system leans on: with the [`BinaryHv`] bit convention
//! (bit `1` ≡ bipolar `+1`, bit `0` ≡ `-1`, tail bits of the last word
//! zero), the bipolar dot product of two `D`-dimensional vectors packed into
//! `u64` words is
//!
//! ```text
//! dot(x, w) = D − 2·popcount(x XOR w)
//! ```
//!
//! because XOR marks exactly the disagreeing coordinates (each contributing
//! `−1` instead of `+1`). The masked variant restricts the product to the
//! coordinates kept by a dropout mask `m`:
//!
//! ```text
//! dot_m(x, w) = kept − 2·popcount((x XOR w) AND m),   kept = popcount(m)
//! ```
//!
//! Every result is an integer of magnitude at most `D`; for `D < 2²⁴` these
//! integers are exactly representable in `f32`, which is why the packed
//! matrix products built on these kernels are **bit-identical** to the dense
//! `f32` reference products, not merely close (see `binnet::packed`).
//!
//! Callers guarantee equal slice lengths; the kernels `debug_assert` it and
//! truncate to the shorter slice in release builds (the behaviour of `zip`).
//!
//! # Kernel tiers
//!
//! Each popcount-shaped kernel exists in up to three tiers: the portable
//! scalar reference (`*_scalar`, plain `u64::count_ones` loops), an explicit
//! AVX2 implementation ([`avx2`], Harley–Seal CSA tree + `vpshufb` nibble
//! LUT), and for the three popcount kernels an AVX-512 one ([`avx512`], the
//! scalar loops compiled for `VPOPCNTQ`). The un-suffixed entry points
//! dispatch on [`active_tier`], which is resolved **once** per process: the
//! highest tier the CPU supports, unless the `LEHDC_KERNEL` env var forces a
//! lower one (`scalar` or `avx2`). A kernel without an AVX-512 body (the
//! carry-save, tree and compare kernels) runs its AVX2 body on the AVX-512
//! tier. Every tier computes exact integers, so their
//! results are bit-identical — enforced by the differential parity suite in
//! `tests/kernel_parity.rs`.
//!
//! [`BinaryHv`]: crate::BinaryHv

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;

/// Env var that forces a kernel tier below the highest: `scalar` or `avx2`
/// (case-insensitive).
///
/// Unset means auto-detect: the highest tier the CPU supports, `avx512`
/// where it has AVX-512F and VPOPCNTDQ, else `avx2` where it has AVX2, else
/// `scalar`. Forcing `avx2` on a CPU without AVX2 falls back to scalar with
/// a one-time warning on stderr rather than crashing, so test suites can
/// force both values unconditionally and skip gracefully.
pub const KERNEL_ENV: &str = "LEHDC_KERNEL";

/// A compute tier the popcount kernels can run on, ordered by capability:
/// each tier is only selected on CPUs that run every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Portable `u64::count_ones` loops — the always-compiled reference.
    Scalar,
    /// Explicit AVX2 Harley–Seal popcount (see [`avx2`]); x86-64 with
    /// runtime AVX2 support only.
    Avx2,
    /// `VPOPCNTQ` popcount, Hamming and masked-Hamming kernels (see
    /// [`avx512`]), the 16-lane gradient product of `binnet::packed`, and
    /// the AVX2 bodies of every other kernel; x86-64 with runtime AVX-512F,
    /// AVX-512 VPOPCNTDQ and AVX2 support only.
    Avx512,
}

impl KernelTier {
    /// The tier's name as accepted by [`KERNEL_ENV`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// Whether the CPU this process runs on supports the tier.
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            KernelTier::Avx2 => avx2_available(),
            KernelTier::Avx512 => avx512_available(),
        }
    }
}

/// Whether the AVX2 tier can run on this host (x86-64 with runtime AVX2).
#[must_use]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 tier can run on this host (x86-64 with runtime
/// AVX-512F, AVX-512 VPOPCNTDQ, POPCNT and AVX2).
#[must_use]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

static ACTIVE_TIER: OnceLock<KernelTier> = OnceLock::new();

/// The tier the un-suffixed kernels dispatch to, resolved once per process
/// (see the module docs for the `LEHDC_KERNEL` override semantics).
///
/// # Panics
///
/// Panics if `LEHDC_KERNEL` is set to anything other than `scalar` or
/// `avx2`.
#[inline]
pub fn active_tier() -> KernelTier {
    *ACTIVE_TIER.get_or_init(detect_tier)
}

fn detect_tier() -> KernelTier {
    let best = [KernelTier::Avx512, KernelTier::Avx2]
        .into_iter()
        .find(|tier| tier.available())
        .unwrap_or(KernelTier::Scalar);
    resolve_tier(std::env::var(KERNEL_ENV).ok().as_deref(), best)
}

/// The tier for the `LEHDC_KERNEL` value `requested` on a CPU whose highest
/// tier is `best`: `best` when unset, else the requested tier, capped at
/// `best` with a warning.
fn resolve_tier(requested: Option<&str>, best: KernelTier) -> KernelTier {
    let Some(requested) = requested else {
        return best;
    };
    let tier = match requested.to_ascii_lowercase().as_str() {
        "scalar" => KernelTier::Scalar,
        "avx2" => KernelTier::Avx2,
        other => panic!("{KERNEL_ENV} must be `scalar` or `avx2`, got `{other}`"),
    };
    if tier > best {
        eprintln!(
            "{KERNEL_ENV}={} requested but this CPU lacks it; \
             falling back to the {} kernels",
            tier.name(),
            best.name()
        );
        return best;
    }
    tier
}

/// Whether the active tier runs the AVX2 bodies of the kernels that have no
/// AVX-512 body: true on the AVX2 tier and on the AVX-512 tier, which is
/// only selected on CPUs that also have AVX2.
#[inline]
fn avx2_bodies() -> bool {
    matches!(active_tier(), KernelTier::Avx2 | KernelTier::Avx512)
}

/// Number of set bits across a packed slice (dispatches on [`active_tier`]).
#[inline]
#[must_use]
pub fn popcount_words(a: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    match active_tier() {
        // SAFETY: the Avx512 tier is only selected where
        // `avx512::available()` detected AVX-512F, VPOPCNTDQ and POPCNT.
        KernelTier::Avx512 => return unsafe { avx512::popcount_words(a) },
        // SAFETY: the Avx2 tier is only selected on CPUs with AVX2.
        KernelTier::Avx2 => return unsafe { avx2::popcount_words(a) },
        KernelTier::Scalar => {}
    }
    popcount_words_scalar(a)
}

/// Scalar reference tier of [`popcount_words`].
#[inline]
#[must_use]
pub fn popcount_words_scalar(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

/// [`popcount_words`] forced onto the AVX2 tier, for differential testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn popcount_words_avx2(a: &[u64]) -> usize {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::popcount_words(a) }
}

/// [`popcount_words`] forced onto the AVX-512 tier, for differential testing.
///
/// # Panics
///
/// Panics if the AVX-512 tier is unavailable — check [`avx512_available`]
/// first.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn popcount_words_avx512(a: &[u64]) -> usize {
    assert!(
        avx512_available(),
        "the AVX-512 kernels need a CPU with AVX-512F and VPOPCNTDQ"
    );
    // SAFETY: availability checked above.
    unsafe { avx512::popcount_words(a) }
}

/// Hamming distance between two packed vectors: `popcount(a XOR b)`
/// (dispatches on [`active_tier`]).
#[inline]
#[must_use]
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    match active_tier() {
        // SAFETY: the Avx512 tier is only selected where
        // `avx512::available()` detected AVX-512F, VPOPCNTDQ and POPCNT.
        KernelTier::Avx512 => return unsafe { avx512::hamming_words(a, b) },
        // SAFETY: the Avx2 tier is only selected on CPUs with AVX2.
        KernelTier::Avx2 => return unsafe { avx2::hamming_words(a, b) },
        KernelTier::Scalar => {}
    }
    hamming_words_scalar(a, b)
}

/// Scalar reference tier of [`hamming_words`].
#[inline]
#[must_use]
pub fn hamming_words_scalar(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "word slices must have equal length");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

/// [`hamming_words`] forced onto the AVX2 tier, for differential testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn hamming_words_avx2(a: &[u64], b: &[u64]) -> usize {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::hamming_words(a, b) }
}

/// [`hamming_words`] forced onto the AVX-512 tier, for differential testing.
///
/// # Panics
///
/// Panics if the AVX-512 tier is unavailable — check [`avx512_available`]
/// first.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn hamming_words_avx512(a: &[u64], b: &[u64]) -> usize {
    assert!(
        avx512_available(),
        "the AVX-512 kernels need a CPU with AVX-512F and VPOPCNTDQ"
    );
    // SAFETY: availability checked above.
    unsafe { avx512::hamming_words(a, b) }
}

/// Bipolar dot product `d − 2·hamming` of two packed `d`-dimensional
/// vectors — the BNN pre-activation `En(x)ᵀ c_k` of the paper's Eq. 6.
#[inline]
#[must_use]
pub fn dot_words(d: usize, a: &[u64], b: &[u64]) -> i64 {
    d as i64 - 2 * hamming_words(a, b) as i64
}

/// Hamming distance restricted to the coordinates kept by `mask`:
/// `popcount((a XOR b) AND mask)` (dispatches on [`active_tier`]).
#[inline]
#[must_use]
pub fn masked_hamming_words(a: &[u64], b: &[u64], mask: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    match active_tier() {
        // SAFETY: the Avx512 tier is only selected where
        // `avx512::available()` detected AVX-512F, VPOPCNTDQ and POPCNT.
        KernelTier::Avx512 => return unsafe { avx512::masked_hamming_words(a, b, mask) },
        // SAFETY: the Avx2 tier is only selected on CPUs with AVX2.
        KernelTier::Avx2 => return unsafe { avx2::masked_hamming_words(a, b, mask) },
        KernelTier::Scalar => {}
    }
    masked_hamming_words_scalar(a, b, mask)
}

/// Scalar reference tier of [`masked_hamming_words`].
#[inline]
#[must_use]
pub fn masked_hamming_words_scalar(a: &[u64], b: &[u64], mask: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "word slices must have equal length");
    debug_assert_eq!(a.len(), mask.len(), "mask must match the word slices");
    a.iter()
        .zip(b)
        .zip(mask)
        .map(|((x, y), m)| ((x ^ y) & m).count_ones() as usize)
        .sum()
}

/// [`masked_hamming_words`] forced onto the AVX2 tier, for differential
/// testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn masked_hamming_words_avx2(a: &[u64], b: &[u64], mask: &[u64]) -> usize {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::masked_hamming_words(a, b, mask) }
}

/// [`masked_hamming_words`] forced onto the AVX-512 tier, for differential
/// testing.
///
/// # Panics
///
/// Panics if the AVX-512 tier is unavailable — check [`avx512_available`]
/// first.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn masked_hamming_words_avx512(a: &[u64], b: &[u64], mask: &[u64]) -> usize {
    assert!(
        avx512_available(),
        "the AVX-512 kernels need a CPU with AVX-512F and VPOPCNTDQ"
    );
    // SAFETY: availability checked above.
    unsafe { avx512::masked_hamming_words(a, b, mask) }
}

// ---------------------------------------------------------------------------
// Bit-sliced carry-save accumulation kernels
//
// `Accumulator` stores per-dimension bundle counters vertically: bit-plane
// `p` holds bit `p` of all `D` counters, packed 64 per word. Adding one
// packed hypervector is then a word-parallel ripple-carry ladder — each step
// is `t = plane & carry; plane ^= carry; carry = t` — and the majority
// threshold is a word-parallel bit-sliced comparison against `n/2`. These
// kernels are the rungs of that ladder, plus the 8-input carry-save tree
// that adds a whole group of hypervectors before one ripple; they follow
// the same dispatch / `_scalar` / `_avx2` tier pattern as the popcount
// kernels above and compute exact integers, so tiers are bit-identical.
// ---------------------------------------------------------------------------

/// Inputs per carry-save tree: [`csa_tree8_words`] and
/// [`csa_tree8_bind_words`] add this many hypervectors per call.
pub const TREE_INPUTS: usize = 8;

/// One carry-save ripple step: `t = plane AND carry; plane ^= carry;
/// carry = t`, word-parallel. Returns the OR of the outgoing carry so
/// callers can stop rippling as soon as it dies. A dead carry is rare on a
/// whole vector: with `D = 10,000` random inputs some word almost always
/// still carries, so a single add climbs ~7 planes on the record-encoding
/// profiles (see [`csa_tree8_words`] for the grouped add that avoids
/// this). Dispatches on [`active_tier`].
#[inline]
pub fn csa_step_words(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_bodies() {
        // SAFETY: the Avx2 and Avx512 tiers are only selected on CPUs with
        // AVX2.
        return unsafe { avx2::csa_step_words(plane, carry) };
    }
    csa_step_words_scalar(plane, carry)
}

/// Scalar reference tier of [`csa_step_words`].
#[inline]
pub fn csa_step_words_scalar(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    debug_assert_eq!(plane.len(), carry.len(), "plane and carry must match");
    let mut or = 0u64;
    for (p, c) in plane.iter_mut().zip(carry.iter_mut()) {
        let t = *p & *c;
        *p ^= *c;
        *c = t;
        or |= t;
    }
    or
}

/// [`csa_step_words`] forced onto the AVX2 tier, for differential testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first.
#[cfg(target_arch = "x86_64")]
pub fn csa_step_words_avx2(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::csa_step_words(plane, carry) }
}

/// First ripple step with the incoming hypervector as the carry:
/// `carry = plane AND input; plane ^= input`, word-parallel, returning the
/// OR of the outgoing carry. This is how an add enters the plane ladder
/// without first copying `input` into a scratch buffer. Dispatches on
/// [`active_tier`].
#[inline]
pub fn csa_input_step_words(plane: &mut [u64], input: &[u64], carry: &mut [u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_bodies() {
        // SAFETY: the Avx2 and Avx512 tiers are only selected on CPUs with
        // AVX2.
        return unsafe { avx2::csa_input_step_words(plane, input, carry) };
    }
    csa_input_step_words_scalar(plane, input, carry)
}

/// Scalar reference tier of [`csa_input_step_words`].
#[inline]
pub fn csa_input_step_words_scalar(plane: &mut [u64], input: &[u64], carry: &mut [u64]) -> u64 {
    debug_assert_eq!(plane.len(), input.len(), "plane and input must match");
    debug_assert_eq!(plane.len(), carry.len(), "plane and carry must match");
    let mut or = 0u64;
    for ((p, &x), c) in plane.iter_mut().zip(input).zip(carry.iter_mut()) {
        let t = *p & x;
        *p ^= x;
        *c = t;
        or |= t;
    }
    or
}

/// [`csa_input_step_words`] forced onto the AVX2 tier, for differential
/// testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first.
#[cfg(target_arch = "x86_64")]
pub fn csa_input_step_words_avx2(plane: &mut [u64], input: &[u64], carry: &mut [u64]) -> u64 {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::csa_input_step_words(plane, input, carry) }
}

/// Fused bind-and-add entry step: the XNOR bind `x = NOT (a XOR b)` (the
/// bipolar Hadamard product under the [`BinaryHv`](crate::BinaryHv) bit convention) feeds the
/// plane ladder directly — `carry = plane AND x; plane ^= x` — so bundling a
/// bound pair never materializes the bound hypervector. Returns the OR of
/// the outgoing carry. Dispatches on [`active_tier`].
///
/// The XNOR of two tail-clean operands has its tail bits **set**; callers
/// must mask the final word of `plane` afterwards (the outgoing carry is
/// tail-clean because the incoming plane was).
#[inline]
pub fn csa_bind_step_words(plane: &mut [u64], a: &[u64], b: &[u64], carry: &mut [u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_bodies() {
        // SAFETY: the Avx2 and Avx512 tiers are only selected on CPUs with
        // AVX2.
        return unsafe { avx2::csa_bind_step_words(plane, a, b, carry) };
    }
    csa_bind_step_words_scalar(plane, a, b, carry)
}

/// Scalar reference tier of [`csa_bind_step_words`].
#[inline]
pub fn csa_bind_step_words_scalar(
    plane: &mut [u64],
    a: &[u64],
    b: &[u64],
    carry: &mut [u64],
) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "operand slices must match");
    debug_assert_eq!(plane.len(), a.len(), "plane and operands must match");
    debug_assert_eq!(plane.len(), carry.len(), "plane and carry must match");
    let mut or = 0u64;
    for (((p, &x), &y), c) in plane.iter_mut().zip(a).zip(b).zip(carry.iter_mut()) {
        let bound = !(x ^ y);
        let t = *p & bound;
        *p ^= bound;
        *c = t;
        or |= t;
    }
    or
}

/// [`csa_bind_step_words`] forced onto the AVX2 tier, for differential
/// testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first.
#[cfg(target_arch = "x86_64")]
pub fn csa_bind_step_words_avx2(
    plane: &mut [u64],
    a: &[u64],
    b: &[u64],
    carry: &mut [u64],
) -> u64 {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::csa_bind_step_words(plane, a, b, carry) }
}

/// Carry-save adder on one word: per bit, `a + b + c = 2·carry + sum`.
/// Returns `(carry, sum)`.
#[inline(always)]
fn csa_word(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// The Harley–Seal tree on one word position: adds the eight input bits
/// `x(0..8)` to the low counter bits `ones`, `twos` and `fours` (weights 1,
/// 2, 4) in seven carry-save adders, and returns the weight-8 carry.
#[inline(always)]
fn tree8_word(ones: &mut u64, twos: &mut u64, fours: &mut u64, x: impl Fn(usize) -> u64) -> u64 {
    let (twos_a, o) = csa_word(*ones, x(0), x(1));
    let (twos_b, o) = csa_word(o, x(2), x(3));
    let (fours_a, t) = csa_word(*twos, twos_a, twos_b);
    let (twos_c, o) = csa_word(o, x(4), x(5));
    let (twos_d, o) = csa_word(o, x(6), x(7));
    let (fours_b, t) = csa_word(t, twos_c, twos_d);
    let (eights, f) = csa_word(*fours, fours_a, fours_b);
    *ones = o;
    *twos = t;
    *fours = f;
    eights
}

/// Splits the low-plane slice of the tree kernels into planes 0, 1 and 2,
/// checking every length the kernels index by.
fn split_low_planes(low: &mut [u64], words: usize) -> (&mut [u64], &mut [u64], &mut [u64]) {
    assert_eq!(
        low.len(),
        3 * words,
        "the tree needs planes 0-2 of the counters"
    );
    let (ones, rest) = low.split_at_mut(words);
    let (twos, fours) = rest.split_at_mut(words);
    (ones, twos, fours)
}

/// The scalar tree driver shared by both input kinds: `input(i, w)` is word
/// `w` of input `i`, and the last word of every input is ANDed with
/// `last_mask`.
#[inline(always)]
fn tree8_scalar(
    low: &mut [u64],
    carry: &mut [u64],
    last_mask: u64,
    input: impl Fn(usize, usize) -> u64,
) -> u64 {
    let words = carry.len();
    let (ones, twos, fours) = split_low_planes(low, words);
    let mut or = 0u64;
    for (w, c) in carry.iter_mut().enumerate() {
        let mask = if w + 1 == words { last_mask } else { u64::MAX };
        let eights = tree8_word(&mut ones[w], &mut twos[w], &mut fours[w], |i| {
            input(i, w) & mask
        });
        *c = eights;
        or |= eights;
    }
    or
}

/// Adds [`TREE_INPUTS`] packed hypervectors to bit-sliced counters at once:
/// a Harley–Seal carry-save adder tree per word folds the eight inputs into
/// planes 0–2 (`low`, plane-major, `3·W` words for `W = carry.len()`) and
/// writes the weight-8 carry into `carry`, returning its OR. The caller
/// ripples that carry up from plane 3 — once per group, where eight single
/// adds would ripple eight times. Inputs must be tail-clean. Dispatches on
/// [`active_tier`].
///
/// # Panics
///
/// Panics if `low` is not `3·W` words or an input is not `W` words.
#[inline]
pub fn csa_tree8_words(low: &mut [u64], carry: &mut [u64], inputs: &[&[u64]; TREE_INPUTS]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_bodies() {
        // SAFETY: the Avx2 and Avx512 tiers are only selected on CPUs with
        // AVX2.
        return unsafe { avx2::csa_tree8_words(low, carry, inputs) };
    }
    csa_tree8_words_scalar(low, carry, inputs)
}

/// Scalar reference tier of [`csa_tree8_words`].
///
/// # Panics
///
/// As [`csa_tree8_words`].
pub fn csa_tree8_words_scalar(
    low: &mut [u64],
    carry: &mut [u64],
    inputs: &[&[u64]; TREE_INPUTS],
) -> u64 {
    let words = carry.len();
    assert!(
        inputs.iter().all(|s| s.len() == words),
        "inputs must span the plane words"
    );
    tree8_scalar(low, carry, u64::MAX, |i, w| inputs[i][w])
}

/// [`csa_tree8_words`] forced onto the AVX2 tier, for differential testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first — or as
/// [`csa_tree8_words`].
#[cfg(target_arch = "x86_64")]
pub fn csa_tree8_words_avx2(
    low: &mut [u64],
    carry: &mut [u64],
    inputs: &[&[u64]; TREE_INPUTS],
) -> u64 {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::csa_tree8_words(low, carry, inputs) }
}

/// [`csa_tree8_words`] over bound pairs: input `i` is the XNOR bind
/// `NOT (a XOR b)` of `pairs[i]`, fused into the tree's loads like
/// [`csa_bind_step_words`]. The XNOR sets the tail bits above `D`, so each
/// input's last word is ANDed with `last_mask` before it enters the tree,
/// which keeps every plane and the carry tail-clean. Dispatches on
/// [`active_tier`].
///
/// # Panics
///
/// Panics if `low` is not `3·W` words or an operand is not `W` words.
#[inline]
pub fn csa_tree8_bind_words(
    low: &mut [u64],
    carry: &mut [u64],
    pairs: &[(&[u64], &[u64]); TREE_INPUTS],
    last_mask: u64,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_bodies() {
        // SAFETY: the Avx2 and Avx512 tiers are only selected on CPUs with
        // AVX2.
        return unsafe { avx2::csa_tree8_bind_words(low, carry, pairs, last_mask) };
    }
    csa_tree8_bind_words_scalar(low, carry, pairs, last_mask)
}

/// Scalar reference tier of [`csa_tree8_bind_words`].
///
/// # Panics
///
/// As [`csa_tree8_bind_words`].
pub fn csa_tree8_bind_words_scalar(
    low: &mut [u64],
    carry: &mut [u64],
    pairs: &[(&[u64], &[u64]); TREE_INPUTS],
    last_mask: u64,
) -> u64 {
    let words = carry.len();
    assert!(
        pairs
            .iter()
            .all(|(a, b)| a.len() == words && b.len() == words),
        "operands must span the plane words"
    );
    tree8_scalar(low, carry, last_mask, |i, w| {
        !(pairs[i].0[w] ^ pairs[i].1[w])
    })
}

/// [`csa_tree8_bind_words`] forced onto the AVX2 tier, for differential
/// testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first — or as
/// [`csa_tree8_bind_words`].
#[cfg(target_arch = "x86_64")]
pub fn csa_tree8_bind_words_avx2(
    low: &mut [u64],
    carry: &mut [u64],
    pairs: &[(&[u64], &[u64]); TREE_INPUTS],
    last_mask: u64,
) -> u64 {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::csa_tree8_bind_words(low, carry, pairs, last_mask) }
}

/// Word-parallel comparison of bit-sliced counters against the constant `k`:
/// on return, bit `i` of `gt` is set iff counter `i > k` and bit `i` of `eq`
/// iff counter `i == k`, restricted to the bits set in `eq` on entry (the
/// caller initializes `gt` to zero and `eq` to the valid-dimension mask).
///
/// `planes` is the plane-major concatenation of `planes.len() / words`
/// bit-planes of `words` words each, least-significant plane first — the
/// [`Accumulator`](crate::Accumulator) storage layout. The classic MSB-first
/// ladder runs entirely in registers per word: at plane `p`, lanes still
/// equal so far move to `gt` when `k`'s bit is 0 and the counter bit is 1,
/// and drop out of `eq` whenever the bits disagree. Dispatches on
/// [`active_tier`].
#[inline]
pub fn bitsliced_cmp_words(planes: &[u64], words: usize, k: u64, gt: &mut [u64], eq: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_bodies() {
        // SAFETY: the Avx2 and Avx512 tiers are only selected on CPUs with
        // AVX2.
        return unsafe { avx2::bitsliced_cmp_words(planes, words, k, gt, eq) };
    }
    bitsliced_cmp_words_scalar(planes, words, k, gt, eq);
}

/// Scalar reference tier of [`bitsliced_cmp_words`].
pub fn bitsliced_cmp_words_scalar(
    planes: &[u64],
    words: usize,
    k: u64,
    gt: &mut [u64],
    eq: &mut [u64],
) {
    let n_planes = if words == 0 { 0 } else { planes.len() / words };
    debug_assert_eq!(planes.len(), n_planes * words, "planes must be rectangular");
    debug_assert_eq!(gt.len(), words, "gt must span the dimension words");
    debug_assert_eq!(eq.len(), words, "eq must span the dimension words");
    if n_planes < 64 && (k >> n_planes) != 0 {
        // Every counter is below 2^planes ≤ k: nothing greater, nothing equal.
        gt.fill(0);
        eq.fill(0);
        return;
    }
    for p in (0..n_planes).rev() {
        let plane = &planes[p * words..(p + 1) * words];
        if (k >> p) & 1 == 1 {
            for (e, &pl) in eq.iter_mut().zip(plane) {
                *e &= pl;
            }
        } else {
            for ((g, e), &pl) in gt.iter_mut().zip(eq.iter_mut()).zip(plane) {
                *g |= *e & pl;
                *e &= !pl;
            }
        }
    }
}

/// [`bitsliced_cmp_words`] forced onto the AVX2 tier, for differential
/// testing.
///
/// # Panics
///
/// Panics if AVX2 is unavailable — check [`avx2_available`] first.
#[cfg(target_arch = "x86_64")]
pub fn bitsliced_cmp_words_avx2(
    planes: &[u64],
    words: usize,
    k: u64,
    gt: &mut [u64],
    eq: &mut [u64],
) {
    assert!(avx2_available(), "the AVX2 kernels need an AVX2-capable CPU");
    // SAFETY: availability checked above.
    unsafe { avx2::bitsliced_cmp_words(planes, words, k, gt, eq) }
}

/// Masked bipolar dot product `kept − 2·popcount((a XOR b) AND mask)`,
/// where `kept = popcount(mask)` is passed in so batch loops hoist it.
///
/// This is how input dropout becomes a per-batch bit mask instead of `f32`
/// zeros: dropped coordinates simply leave both the positive and negative
/// tallies, and the surviving product stays an exact integer.
#[inline]
#[must_use]
pub fn masked_dot_words(kept: usize, a: &[u64], b: &[u64], mask: &[u64]) -> i64 {
    kept as i64 - 2 * masked_hamming_words(a, b, mask) as i64
}

/// Batch argmax kernel: the index of the packed row with the largest dot
/// product against `x` (ties resolve to the lowest index), or `None` for an
/// empty row set. Classification by minimum Hamming distance is exactly
/// this, since `dot = d − 2·hamming` is monotone in `−hamming`.
pub fn argmax_dot<'a, I>(x: &[u64], rows: I) -> Option<usize>
where
    I: IntoIterator<Item = &'a [u64]>,
{
    // max dot == min hamming; comparing hammings avoids needing `d`.
    let mut best: Option<(usize, usize)> = None;
    for (k, row) in rows.into_iter().enumerate() {
        let h = hamming_words(x, row);
        match best {
            Some((best_h, _)) if h >= best_h => {}
            _ => best = Some((h, k)),
        }
    }
    best.map(|(_, k)| k)
}

/// Default query-block size for [`argmax_dot_blocked_into`] and the packed
/// forward products: 64 packed 10k-bit queries are ~78 KB, which stays
/// cache-resident while each class row streams against the whole block.
pub const QUERY_BLOCK: usize = 64;

/// Largest query block [`argmax_dot_blocked_into`] tiles: the size of its
/// stack tile of running minima, and [`query_block_for`]'s upper clamp.
const MAX_QUERY_BLOCK: usize = 256;

/// Picks a query-block size so one block of packed queries (`words_per_row`
/// `u64`s each) occupies roughly 16 KB — small enough to stay L1-resident
/// while a class row streams against it, large enough to amortize the row
/// loads. Clamped to `[8, 256]`; at the paper's `D = 10,000` (157 words)
/// this yields 13. Block size never affects results (every blocked kernel
/// is exact and block-invariant), only locality.
#[must_use]
pub fn query_block_for(words_per_row: usize) -> usize {
    const TARGET_BYTES: usize = 16 * 1024;
    (TARGET_BYTES / (words_per_row.max(1) * 8)).clamp(8, MAX_QUERY_BLOCK)
}

/// Packs the signs of `values` into bits, 64 per word: bit `j` of the
/// output is set iff `values[j] >= 0.0` (the paper's Eq. 8 binarization,
/// `sgn(0) = +1`; a NaN coordinate packs as `-1`). Branchless and
/// word-parallel — this is the kernel behind `RealHv::sign`, ~20× the
/// per-bit loop at `D = 10,000`. Tail bits of the last word stay zero.
///
/// # Panics
///
/// Panics if `out` has fewer than `values.len().div_ceil(64)` words.
pub fn pack_signs_words(values: &[f32], out: &mut [u64]) {
    let words = values.len().div_ceil(64);
    assert!(
        out.len() >= words,
        "sign output needs {words} words, got {}",
        out.len()
    );
    out[..words].fill(0);
    for (w, chunk) in values.chunks(64).enumerate() {
        let mut word = 0u64;
        for (b, &v) in chunk.iter().enumerate() {
            word |= u64::from(v >= 0.0) << b;
        }
        out[w] = word;
    }
}

/// Query-blocked batch argmax kernel: `out[i]` is the index of the packed
/// row with the largest dot product against `queries[i]`.
///
/// Instead of streaming every row per query (the [`argmax_dot`] access
/// pattern, which re-reads the whole `K × D` row set once per query), the
/// queries are processed in blocks of `block`: each row is loaded once per
/// block and compared against all queries in it. Within a block the row
/// index `k` ascends and a candidate wins only on a strictly smaller
/// Hamming distance, so ties resolve to the lowest row index — the result
/// is identical to per-query [`argmax_dot`] for **every** block size, kernel
/// tier, and caller-side chunking.
///
/// # Panics
///
/// Panics if `rows` is empty, `block` is zero, or `out.len()` differs from
/// `queries.len()`.
pub fn argmax_dot_blocked_into<Q: AsRef<[u64]>, R: AsRef<[u64]>>(
    queries: &[Q],
    rows: &[R],
    block: usize,
    out: &mut [usize],
) {
    assert!(!rows.is_empty(), "argmax over an empty row set");
    assert!(block > 0, "query block size must be non-zero");
    assert_eq!(queries.len(), out.len(), "one output slot per query");
    // Blocking exists to amortize row loads when the row set outsizes L1;
    // a small row set stays cache-resident on its own, where the blocked
    // loop's extra bookkeeping only costs. Fall back to the per-query
    // argmax there — [`argmax_dot`] and the blocked loop are proven
    // identical for every block size, so this is purely a tiling choice.
    let row_bytes: usize = rows.iter().map(|r| size_of_val(r.as_ref())).sum();
    if row_bytes <= 16 * 1024 {
        for (q, slot) in queries.iter().zip(out.iter_mut()) {
            *slot = argmax_dot(q.as_ref(), rows.iter().map(AsRef::as_ref))
                .expect("row set is non-empty");
        }
        return;
    }
    // The running minima live in a stack tile; a larger block is cut to
    // it, which block invariance makes a pure tiling choice.
    let block = block.min(MAX_QUERY_BLOCK);
    let mut best_h = [usize::MAX; MAX_QUERY_BLOCK];
    for (q_blk, out_blk) in queries.chunks(block).zip(out.chunks_mut(block)) {
        let best = &mut best_h[..q_blk.len()];
        best.fill(usize::MAX);
        for (k, row) in rows.iter().enumerate() {
            for ((q, h_best), slot) in q_blk.iter().zip(best.iter_mut()).zip(out_blk.iter_mut()) {
                let h = hamming_words(q.as_ref(), row.as_ref());
                if h < *h_best {
                    *h_best = h;
                    *slot = k;
                }
            }
        }
    }
}

/// Query-blocked batch dot kernel: `out[i·K + k]` is the exact integer dot
/// product of `queries[i]` against `rows[k]` (`K = rows.len()`), row-major.
///
/// Same blocking as [`argmax_dot_blocked_into`] — each row streams against a
/// cache-resident block of queries — but the full logit matrix is kept, for
/// strategies that need every per-class similarity rather than the argmax
/// (the enhanced/adaptive retraining updates). Every entry is an exact
/// integer, so the output is identical for every block size, kernel tier,
/// and caller-side chunking.
///
/// # Panics
///
/// Panics if `rows` is empty, `block` is zero, or `out.len()` differs from
/// `queries.len() · rows.len()`.
pub fn dots_blocked_into<Q: AsRef<[u64]>, R: AsRef<[u64]>>(
    d: usize,
    queries: &[Q],
    rows: &[R],
    block: usize,
    out: &mut [i64],
) {
    assert!(!rows.is_empty(), "dot matrix over an empty row set");
    assert!(block > 0, "query block size must be non-zero");
    let k_rows = rows.len();
    assert_eq!(
        out.len(),
        queries.len() * k_rows,
        "one output slot per (query, row) pair"
    );
    let block = block.min(queries.len().max(1));
    for (q_blk, out_blk) in queries.chunks(block).zip(out.chunks_mut(block * k_rows)) {
        for (k, row) in rows.iter().enumerate() {
            for (i, q) in q_blk.iter().enumerate() {
                out_blk[i * k_rows + k] = dot_words(d, q.as_ref(), row.as_ref());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryHv, Dim};

    fn pair(d: usize) -> (BinaryHv, BinaryHv) {
        let mut rng = crate::rng::rng_for(5, 17);
        let dim = Dim::new(d);
        (
            BinaryHv::random(dim, &mut rng),
            BinaryHv::random(dim, &mut rng),
        )
    }

    #[test]
    fn kernels_agree_with_binaryhv_methods() {
        for d in [64, 100, 257, 10_000] {
            let (a, b) = pair(d);
            assert_eq!(hamming_words(a.as_words(), b.as_words()), a.hamming(&b));
            assert_eq!(dot_words(d, a.as_words(), b.as_words()), a.dot(&b));
            assert_eq!(popcount_words(a.as_words()), a.count_ones());
        }
    }

    #[test]
    fn full_mask_reduces_to_unmasked() {
        let d = 300;
        let (a, b) = pair(d);
        let mask = BinaryHv::ones(Dim::new(d));
        let kept = popcount_words(mask.as_words());
        assert_eq!(kept, d);
        assert_eq!(
            masked_dot_words(kept, a.as_words(), b.as_words(), mask.as_words()),
            a.dot(&b)
        );
        assert_eq!(
            masked_hamming_words(a.as_words(), b.as_words(), mask.as_words()),
            a.hamming(&b)
        );
    }

    #[test]
    fn masked_dot_matches_scalar_reference() {
        let d = 500;
        let (a, b) = pair(d);
        let mask = BinaryHv::from_fn(Dim::new(d), |i| i % 3 != 0);
        let kept = popcount_words(mask.as_words());
        let expect: i64 = (0..d)
            .filter(|&i| mask.get(i))
            .map(|i| i64::from(a.bipolar(i) * b.bipolar(i)))
            .sum();
        assert_eq!(
            masked_dot_words(kept, a.as_words(), b.as_words(), mask.as_words()),
            expect
        );
    }

    #[test]
    fn empty_mask_drops_everything() {
        let d = 128;
        let (a, b) = pair(d);
        let zeros = BinaryHv::zeros(Dim::new(d));
        assert_eq!(
            masked_dot_words(0, a.as_words(), b.as_words(), zeros.as_words()),
            0
        );
    }

    #[test]
    fn argmax_dot_picks_nearest_row_with_low_index_ties() {
        let d = 512;
        let mut rng = crate::rng::rng_for(9, 2);
        let dim = Dim::new(d);
        let rows: Vec<BinaryHv> = (0..4).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        for (k, row) in rows.iter().enumerate() {
            let got = argmax_dot(row.as_words(), rows.iter().map(BinaryHv::as_words));
            assert_eq!(got, Some(k));
        }
        // exact duplicate rows tie; the lowest index wins
        let dup = vec![rows[2].clone(), rows[2].clone()];
        assert_eq!(
            argmax_dot(rows[2].as_words(), dup.iter().map(BinaryHv::as_words)),
            Some(0)
        );
        assert_eq!(argmax_dot::<[&[u64]; 0]>(rows[0].as_words(), []), None);
    }

    #[test]
    fn blocked_argmax_matches_per_query_argmax_at_any_block() {
        let d = 700;
        let mut rng = crate::rng::rng_for(10, 3);
        let dim = Dim::new(d);
        let rows: Vec<BinaryHv> = (0..6).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        // duplicate a row so ties are actually exercised
        let mut rows = rows;
        rows.push(rows[1].clone());
        let queries: Vec<BinaryHv> = (0..37).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let row_words: Vec<&[u64]> = rows.iter().map(BinaryHv::as_words).collect();
        let query_words: Vec<&[u64]> = queries.iter().map(BinaryHv::as_words).collect();
        let expect: Vec<usize> = queries
            .iter()
            .map(|q| argmax_dot(q.as_words(), row_words.iter().copied()).unwrap())
            .collect();
        for block in [1usize, 2, 7, 37, 64, usize::MAX] {
            let mut out = vec![usize::MAX; queries.len()];
            argmax_dot_blocked_into(&query_words, &row_words, block, &mut out);
            assert_eq!(out, expect, "block={block}");
        }
        // queries tying two duplicate rows resolve to the lower index
        let mut out = [usize::MAX; 1];
        argmax_dot_blocked_into(&[rows[1].as_words()], &row_words, 4, &mut out);
        assert_eq!(out, [1]);
    }

    #[test]
    fn blocked_argmax_large_row_set_takes_blocked_loop() {
        // 16 rows at D = 10,000 is ~20 KB of rows — past the L1-resident
        // fast path, so this pins the blocked loop itself (the other tests
        // in this module all fit the fast path).
        let d = 10_000;
        let mut rng = crate::rng::rng_for(11, 6);
        let dim = Dim::new(d);
        let rows: Vec<BinaryHv> = (0..16).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let queries: Vec<BinaryHv> = (0..33).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let row_words: Vec<&[u64]> = rows.iter().map(BinaryHv::as_words).collect();
        let query_words: Vec<&[u64]> = queries.iter().map(BinaryHv::as_words).collect();
        assert!(row_words.iter().map(|r| size_of_val(*r)).sum::<usize>() > 16 * 1024);
        let expect: Vec<usize> = queries
            .iter()
            .map(|q| argmax_dot(q.as_words(), row_words.iter().copied()).unwrap())
            .collect();
        for block in [1usize, 7, 33, 64] {
            let mut out = vec![usize::MAX; queries.len()];
            argmax_dot_blocked_into(&query_words, &row_words, block, &mut out);
            assert_eq!(out, expect, "block={block}");
        }
    }

    #[test]
    fn query_block_for_targets_l1_and_clamps() {
        // 157 words/row (D = 10,000) → ⌊16384 / 1256⌋ = 13 queries/block.
        assert_eq!(query_block_for(157), 13);
        // tiny rows clamp high, huge rows clamp low, zero never panics
        assert_eq!(query_block_for(1), 256);
        assert_eq!(query_block_for(0), 256);
        assert_eq!(query_block_for(100_000), 8);
    }

    #[test]
    fn blocked_dots_match_per_pair_dot_at_any_block() {
        let d = 700;
        let mut rng = crate::rng::rng_for(12, 4);
        let dim = Dim::new(d);
        let rows: Vec<BinaryHv> = (0..5).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let queries: Vec<BinaryHv> = (0..23).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let row_words: Vec<&[u64]> = rows.iter().map(BinaryHv::as_words).collect();
        let query_words: Vec<&[u64]> = queries.iter().map(BinaryHv::as_words).collect();
        let expect: Vec<i64> = queries
            .iter()
            .flat_map(|q| rows.iter().map(|r| q.dot(r)))
            .collect();
        for block in [1usize, 2, 7, 23, 64, usize::MAX] {
            let mut out = vec![i64::MIN; expect.len()];
            dots_blocked_into(d, &query_words, &row_words, block, &mut out);
            assert_eq!(out, expect, "block={block}");
        }
        // empty query set is a no-op
        dots_blocked_into::<&[u64], _>(d, &[], &row_words, 8, &mut []);
    }

    #[test]
    #[should_panic(expected = "empty row set")]
    fn blocked_dots_reject_empty_rows() {
        let (a, _) = pair(64);
        dots_blocked_into::<_, &[u64]>(64, &[a.as_words()], &[], 8, &mut [0]);
    }

    #[test]
    fn blocked_argmax_handles_empty_query_set() {
        let (a, _) = pair(64);
        argmax_dot_blocked_into::<&[u64], _>(&[], &[a.as_words()], 8, &mut []);
    }

    #[test]
    #[should_panic(expected = "empty row set")]
    fn blocked_argmax_rejects_empty_rows() {
        let (a, _) = pair(64);
        argmax_dot_blocked_into::<_, &[u64]>(&[a.as_words()], &[], 8, &mut [0]);
    }

    #[test]
    fn tier_names_and_detection_are_consistent() {
        assert_eq!(KernelTier::Scalar.name(), "scalar");
        assert_eq!(KernelTier::Avx2.name(), "avx2");
        assert_eq!(KernelTier::Avx512.name(), "avx512");
        assert!(KernelTier::Scalar < KernelTier::Avx2 && KernelTier::Avx2 < KernelTier::Avx512);
        let tier = active_tier();
        match tier {
            KernelTier::Avx512 => assert!(avx512_available(), "Avx512 tier requires AVX-512"),
            KernelTier::Avx2 => assert!(avx2_available(), "Avx2 tier requires AVX2 hardware"),
            KernelTier::Scalar => {}
        }
        if std::env::var_os(KERNEL_ENV).is_none() {
            // auto-detection picks the highest tier the CPU runs
            let best = if avx512_available() {
                KernelTier::Avx512
            } else if avx2_available() {
                KernelTier::Avx2
            } else {
                KernelTier::Scalar
            };
            assert_eq!(tier, best);
        }
        // the active tier is stable across calls (resolved once)
        assert_eq!(active_tier(), tier);
    }

    #[test]
    fn forced_tiers_fall_back_to_the_highest_available() {
        use KernelTier::{Avx2, Avx512, Scalar};
        for best in [Scalar, Avx2, Avx512] {
            assert_eq!(resolve_tier(None, best), best);
            assert_eq!(resolve_tier(Some("scalar"), best), Scalar);
            // without AVX2 this falls back to scalar
            assert_eq!(resolve_tier(Some("AVX2"), best), best.min(Avx2));
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_reference() {
        // whatever tier is active, results must equal the scalar reference
        for d in [1usize, 63, 64, 65, 255, 256, 257, 1024, 10_000] {
            let (a, b) = pair(d);
            let mask = BinaryHv::from_fn(Dim::new(d), |i| i % 5 != 0);
            assert_eq!(
                popcount_words(a.as_words()),
                popcount_words_scalar(a.as_words()),
                "popcount d={d}"
            );
            assert_eq!(
                hamming_words(a.as_words(), b.as_words()),
                hamming_words_scalar(a.as_words(), b.as_words()),
                "hamming d={d}"
            );
            assert_eq!(
                masked_hamming_words(a.as_words(), b.as_words(), mask.as_words()),
                masked_hamming_words_scalar(a.as_words(), b.as_words(), mask.as_words()),
                "masked d={d}"
            );
        }
    }
}
