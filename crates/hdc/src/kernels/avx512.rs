//! AVX-512 popcount kernels — the `VPOPCNTQ` tier behind the dispatch in
//! [`kernels`](crate::kernels).
//!
//! There are no intrinsics here: each kernel is the scalar reference loop
//! compiled with `avx512f` and `avx512vpopcntdq` enabled, which LLVM
//! vectorizes into 512-bit loads, XOR/AND and `vpopcntq zmm` with a
//! word-wise scalar tail. The integer sums are exact, so the results are the
//! scalar tier's bit for bit; `tests/kernel_parity.rs` diffs them at widths
//! straddling every 8-word register boundary.
//!
//! Only the three popcount kernels have AVX-512 bodies. The carry-save,
//! tree and compare kernels gain nothing from wider auto-vectorization and
//! keep their AVX2 bodies on this tier, which is why [`available`] also
//! requires AVX2.
//!
//! Everything in this module requires those features at runtime: the
//! functions are `unsafe fn` with `#[target_feature]`, and the safe wrappers
//! in [`kernels`](crate::kernels) check [`available`] first.

use super::{hamming_words_scalar, masked_hamming_words_scalar, popcount_words_scalar};

/// Whether the running CPU supports this tier: AVX-512F with `VPOPCNTQ`,
/// and AVX2 for the kernels that keep their AVX2 bodies.
#[must_use]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        && std::arch::is_x86_feature_detected!("popcnt")
        && super::avx2::available()
}

/// [`popcount_words_scalar`] built for `VPOPCNTQ`.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512 VPOPCNTDQ and POPCNT
/// (see [`available`]).
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
#[must_use]
pub unsafe fn popcount_words(a: &[u64]) -> usize {
    popcount_words_scalar(a)
}

/// [`hamming_words_scalar`] built for `VPOPCNTQ`.
///
/// # Safety
///
/// As [`popcount_words`].
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
#[must_use]
pub unsafe fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    hamming_words_scalar(a, b)
}

/// [`masked_hamming_words_scalar`] built for `VPOPCNTQ`.
///
/// # Safety
///
/// As [`popcount_words`].
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
#[must_use]
pub unsafe fn masked_hamming_words(a: &[u64], b: &[u64], mask: &[u64]) -> usize {
    masked_hamming_words_scalar(a, b, mask)
}
