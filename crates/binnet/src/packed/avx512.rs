//! AVX-512 tier of the packed gradient product `Gᵀ·X` behind
//! [`packed_transpose_matmul_into`](super::packed_transpose_matmul_into).
//! The fused optimizer step has no AVX-512 body and runs its AVX2 one on
//! this tier.
//!
//! The kernel is the AVX2 lanes-over-dims body (see the `avx2` module)
//! widened to **16 adjacent output dims** per `zmm` register, one register
//! per class. The 16 packed input bits of one (batch row, 16-dim group)
//! are the `__mmask16` of the sign flip itself: for every class of the
//! current register group,
//!
//! ```text
//! acc[k] += mask_xor(broadcast(g[b][k]), flip = !bits, sign)
//! ```
//!
//! with `b` ascending, so no per-row lane-mask expansion is needed. Up to
//! [`MAX_CLASSES`] accumulators stay in the 32 `zmm` registers while the
//! batch streams past them; wider class sets take several groups. The
//! dropout keep-mask is another `__mmask16`, applied once at the store with
//! a zero-masking move, so dropped dims become `+0.0`.
//!
//! Each lane runs the scalar reference's computation of its own output
//! element: it starts at `+0.0` and adds the same sign-flipped terms in the
//! same ascending-`b` order, so the result is bit-identical to the scalar
//! and AVX2 tiers by construction; `tests/packed_parity.rs` diffs the
//! tiers in one process.

use core::arch::x86_64::{
    __mmask16, _mm512_add_ps, _mm512_castps_si512, _mm512_castsi512_ps, _mm512_mask_xor_epi32,
    _mm512_maskz_mov_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
};
use std::ops::Range;

use super::Operands;

/// Output dims per register.
pub(super) const LANES: usize = 16;

/// Class accumulators held in registers at once. Of the 32 `zmm`
/// registers, the rest hold the sign constant and the broadcast terms; at
/// 28 accumulators the compiler runs short of registers for the terms and
/// spills accumulators to the stack on every batch row.
const MAX_CLASSES: usize = 27;

/// Writes the gradient of the 16-aligned dims `dims` into `rows`, where
/// `rows[c][dim - first]` is class `c`'s output for `dim`.
///
/// # Safety
///
/// The CPU must support AVX-512F. Every slice access is bounds-checked; for
/// a correct result `dims.start` and `dims.len()` must be multiples of
/// [`LANES`] and `rows` must hold the `K` class rows.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn gradient_dims(
    op: Operands<'_>,
    dims: Range<usize>,
    first: usize,
    rows: &mut [&mut [f32]],
) {
    debug_assert!(dims.start.is_multiple_of(LANES) && dims.len().is_multiple_of(LANES));
    debug_assert_eq!(rows.len(), op.k);
    // One monomorphized register group per width, so every accumulator
    // array has a constant length and lives in registers.
    macro_rules! class_group {
        ($n:expr, $d0:expr, $k0:expr, $keep:expr; $($w:literal)*) => {
            match $n {
                // SAFETY: this function runs with AVX-512F enabled.
                $($w => unsafe { class_group::<$w>(op, $d0, $k0, $keep, first, rows) },)*
                _ => unreachable!("class groups hold 1..={MAX_CLASSES} classes"),
            }
        };
    }
    for d0 in dims.step_by(LANES) {
        let keep: __mmask16 = match op.mask {
            Some(m) => (m[d0 / 64] >> (d0 % 64)) as u16,
            None => u16::MAX,
        };
        let mut k0 = 0;
        while k0 < op.k {
            let n = (op.k - k0).min(MAX_CLASSES);
            class_group!(n, d0, k0, keep;
                1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27);
            k0 += n;
        }
    }
}

/// Accumulates classes `k0..k0 + N` of one 16-dim group over the whole
/// batch in `N` registers, then stores each (masked) into dims
/// `d₀..d₀+16` of its class row.
///
/// # Safety
///
/// The CPU must support AVX-512F (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn class_group<const N: usize>(
    op: Operands<'_>,
    d0: usize,
    k0: usize,
    keep: __mmask16,
    first: usize,
    rows: &mut [&mut [f32]],
) {
    let (word, shift) = (d0 / 64, d0 % 64);
    // SAFETY: AVX-512F is available (caller contract); every slice access
    // below is bounds-checked, and each store covers one checked 16-lane
    // sub-slice.
    unsafe {
        let sign = _mm512_set1_epi32(i32::MIN);
        let mut acc = [_mm512_setzero_ps(); N];
        for b in 0..op.batch {
            // Lane j flips where input bit d₀ + j is 0 (bipolar −1).
            let flip: __mmask16 = !(op.x[b * op.wpr + word] >> shift) as u16;
            let g_row = b * op.k + k0;
            let g_terms: &[f32; N] = op.g[g_row..g_row + N].try_into().expect("N classes");
            for (a, &gv) in acc.iter_mut().zip(g_terms) {
                let gv = _mm512_castps_si512(_mm512_set1_ps(gv));
                let term = _mm512_mask_xor_epi32(gv, flip, gv, sign);
                *a = _mm512_add_ps(*a, _mm512_castsi512_ps(term));
            }
        }
        let at = d0 - first;
        for (row, a) in rows[k0..k0 + N].iter_mut().zip(&acc) {
            _mm512_storeu_ps(
                row[at..at + LANES].as_mut_ptr(),
                _mm512_maskz_mov_ps(keep, *a),
            );
        }
    }
}
