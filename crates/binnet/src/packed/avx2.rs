//! AVX2 tier of the packed gradient product `Xᵀ·G` — the explicit-SIMD
//! path behind [`packed_transpose_matmul_into`](super::packed_transpose_matmul_into).
//!
//! # Strategy
//!
//! The kernel vectorizes across **8 adjacent output dims**, never across
//! the summed batch: one 256-bit register holds `out[d₀..d₀+8][k]` for one
//! class `k`. For each (batch row `b`, 8-dim group) one byte of the packed
//! row — bits `d₀..d₀+8` — is expanded once into a lane mask holding the
//! `f32` sign bit wherever the input bit is `0` (bipolar `−1`). Then, for
//! every class of the current register group,
//!
//! ```text
//! acc[k] += broadcast(g[b][k]) XOR flip
//! ```
//!
//! with `b` ascending. Up to [`MAX_CLASSES`] accumulators stay in registers
//! while the batch streams past them; wider class sets take several groups.
//! The dropout keep-mask is applied once, at the store, so dropped dims
//! become `+0.0`.
//!
//! # Exactness
//!
//! Each lane performs exactly the scalar reference's operations on its own
//! output element: it starts at `+0.0` and adds the same sign-flipped terms
//! in the same ascending-`b` order (IEEE addition is lane-wise and
//! commutative, and negation by sign-bit XOR is exact). The scalar path
//! zeroes a dropped dim's terms instead of its sum, but a sum of `+0.0`
//! terms is `+0.0` too. So the result is bit-identical to the scalar tier
//! by construction; `tests/packed_parity.rs` diffs the two in one process.

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_and_ps, _mm256_and_si256, _mm256_castsi256_ps,
    _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm256_sllv_epi32,
    _mm256_srai_epi32, _mm256_storeu_ps, _mm256_xor_ps,
};
use std::ops::Range;

use super::Operands;

/// Output dims per register.
pub(super) const LANES: usize = 8;

/// Class accumulators held in registers at once (of the 16 `ymm`
/// registers, the rest hold the flip mask, the broadcast term, and the two
/// constants of the mask expansion).
const MAX_CLASSES: usize = 12;

/// Moves bit `j` of `bits` to bit 31 of lane `j` (garbage below it); with
/// `bits` a packed word shifted right by `d₀`, lane `j` gets dim `d₀ + j`.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn to_lane_tops(bits: u32) -> __m256i {
    // Shifting lane j left by 31 − j moves bit j to the top; the higher
    // bits of the broadcast word fall off the end.
    // SAFETY: AVX2 is available (caller contract).
    unsafe {
        let shifts = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
        _mm256_sllv_epi32(_mm256_set1_epi32(bits as i32), shifts)
    }
}

/// Writes the gradient rows of the 8-aligned dims `dims` into `out`
/// (`dims.len() × K`, row-major).
///
/// # Safety
///
/// The CPU must support AVX2. Every slice access is bounds-checked; for a
/// correct result `dims.start` and `dims.len()` must be multiples of
/// [`LANES`] and `out` must hold exactly `dims.len() × K` entries.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gradient_dims(op: Operands<'_>, dims: Range<usize>, out: &mut [f32]) {
    debug_assert!(dims.start.is_multiple_of(LANES) && dims.len().is_multiple_of(LANES));
    debug_assert_eq!(out.len(), dims.len() * op.k);
    // One monomorphized register group per width, so every accumulator
    // array has a constant length and lives in registers.
    macro_rules! class_group {
        ($n:expr, $d0:expr, $k0:expr, $keep:expr, $group:expr; $($w:literal)*) => {
            match $n {
                // SAFETY: this function runs with AVX2 enabled.
                $($w => unsafe { class_group::<$w>(op, $d0, $k0, $keep, $group) },)*
                _ => unreachable!("class groups hold 1..={MAX_CLASSES} classes"),
            }
        };
    }
    let group_len = LANES * op.k;
    for (d0, group) in dims.step_by(LANES).zip(out.chunks_exact_mut(group_len)) {
        let keep = match op.mask {
            Some(m) => {
                let bits = (m[d0 / 64] >> (d0 % 64)) as u32;
                // SAFETY: this function runs with AVX2 enabled.
                let tops = unsafe { to_lane_tops(bits) };
                _mm256_castsi256_ps(_mm256_srai_epi32(tops, 31))
            }
            None => _mm256_castsi256_ps(_mm256_set1_epi32(-1)),
        };
        let mut k0 = 0;
        while k0 < op.k {
            let n = (op.k - k0).min(MAX_CLASSES);
            class_group!(n, d0, k0, keep, group; 1 2 3 4 5 6 7 8 9 10 11 12);
            k0 += n;
        }
    }
}

/// Accumulates classes `k0..k0 + N` of one 8-dim group over the whole batch
/// in `N` registers, then stores them (masked) into `group`, the `8 × K`
/// output rows of dims `d₀..d₀+8`.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn class_group<const N: usize>(
    op: Operands<'_>,
    d0: usize,
    k0: usize,
    keep: __m256,
    group: &mut [f32],
) {
    // Rows are walked by offset rather than `chunks_exact`, whose setup
    // divides; this runs once per (8-dim group, class group).
    let (word, shift) = (d0 / 64, d0 % 64);
    // SAFETY: AVX2 is available (caller contract); every slice access
    // below is bounds-checked, and `lanes` holds exactly one vector.
    unsafe {
        let sign = _mm256_set1_epi32(i32::MIN);
        let mut acc = [_mm256_setzero_ps(); N];
        for b in 0..op.batch {
            // Sign bit set where the input bit is 0 (bipolar −1). Inverting
            // the byte in a scalar register keeps the flip a plain AND, so
            // each term stays one broadcast load, one XOR and one add.
            let bits = !(op.x[b * op.wpr + word] >> shift) as u32;
            let flip = _mm256_castsi256_ps(_mm256_and_si256(to_lane_tops(bits), sign));
            let g_row = b * op.k + k0;
            let g_terms: &[f32; N] = op.g[g_row..g_row + N].try_into().expect("N classes");
            for (a, &gv) in acc.iter_mut().zip(g_terms) {
                *a = _mm256_add_ps(*a, _mm256_xor_ps(_mm256_set1_ps(gv), flip));
            }
        }
        let mut lanes = [0.0f32; LANES];
        for (c, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_and_ps(*a, keep));
            for (lane, &v) in lanes.iter().enumerate() {
                group[lane * op.k + k0 + c] = v;
            }
        }
    }
}
