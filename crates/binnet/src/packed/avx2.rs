//! AVX2 tier of the LeHDC training kernels: the packed gradient product
//! `Gᵀ·X` behind
//! [`packed_transpose_matmul_into`](super::packed_transpose_matmul_into),
//! and the fused Adam + sign-repack step behind
//! [`BinaryLinear::apply_gradient_fused`](crate::BinaryLinear::apply_gradient_fused).
//!
//! # Gradient product
//!
//! The kernel vectorizes across **8 adjacent output dims**, never across
//! the summed batch: one 256-bit register holds `out[k][d₀..d₀+8]` for one
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
//! The output is class-major, so each register is stored with one vector
//! store into its class row. The dropout keep-mask is applied once, at the
//! store, so dropped dims become `+0.0`.
//!
//! Each lane performs exactly the scalar reference's operations on its own
//! output element: it starts at `+0.0` and adds the same sign-flipped terms
//! in the same ascending-`b` order (IEEE addition is lane-wise and
//! commutative, and negation by sign-bit XOR is exact). The scalar path
//! zeroes a dropped dim's terms instead of its sum, but a sum of `+0.0`
//! terms is `+0.0` too. So the result is bit-identical to the scalar tier
//! by construction; `tests/packed_parity.rs` diffs the two in one process.
//!
//! # Fused optimizer step
//!
//! Latents, gradient and Adam moments are class-major, like the packed
//! weight rows, so the 64 coordinates of one weight word are adjacent in
//! every buffer. Each group of 8 runs [`AdamStep::update`] lane-wise —
//! the same IEEE operations in the same order, with no FMA and every
//! division kept a division — and packs its 8 sign bits with one
//! `cmp_ge(l, 0)` + `movemask`. Two traps keep the tiers bit-identical:
//!
//! - `f32::clamp` lets a NaN gradient through. `max`/`min` return their
//!   *second* operand when either input is NaN, so the clip is
//!   `min(hi, max(lo, g))` with the gradient second.
//! - `l >= 0.0` packs `−0.0` to 1 and NaN to 0. An ordered `_CMP_GE_OQ`
//!   compare does the same; reading the raw sign bit would get `−0.0`
//!   wrong.
//!
//! Fewer than 8 coordinates left at the end of a word (a class row whose
//! `D` is not a multiple of 8) take the scalar code. `tests/fused_step.rs`
//! pins both tiers against the scalar `Adam::step` on NaN, infinite,
//! subnormal and signed-zero values.

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_and_ps, _mm256_and_si256, _mm256_castsi256_ps,
    _mm256_cmp_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
    _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
    _mm256_setzero_ps, _mm256_sllv_epi32, _mm256_sqrt_ps, _mm256_srai_epi32, _mm256_storeu_ps,
    _mm256_sub_ps, _mm256_xor_ps, _CMP_GE_OQ,
};
use std::ops::Range;

use super::{step_word_scalar, word_spans, FusedChunk, Operands};
use crate::optim::AdamStep;

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

/// Writes the gradient of the 8-aligned dims `dims` into `rows`, where
/// `rows[c][dim - first]` is class `c`'s output for `dim`.
///
/// # Safety
///
/// The CPU must support AVX2. Every slice access is bounds-checked; for a
/// correct result `dims.start` and `dims.len()` must be multiples of
/// [`LANES`] and `rows` must hold the `K` class rows.
#[target_feature(enable = "avx2")]
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
                // SAFETY: this function runs with AVX2 enabled.
                $($w => unsafe { class_group::<$w>(op, $d0, $k0, $keep, first, rows) },)*
                _ => unreachable!("class groups hold 1..={MAX_CLASSES} classes"),
            }
        };
    }
    for d0 in dims.step_by(LANES) {
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
            class_group!(n, d0, k0, keep; 1 2 3 4 5 6 7 8 9 10 11 12);
            k0 += n;
        }
    }
}

/// Accumulates classes `k0..k0 + N` of one 8-dim group over the whole batch
/// in `N` registers, then stores each (masked) into dims `d₀..d₀+8` of its
/// class row.
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
    first: usize,
    rows: &mut [&mut [f32]],
) {
    // Rows are walked by offset rather than `chunks_exact`, whose setup
    // divides; this runs once per (8-dim group, class group).
    let (word, shift) = (d0 / 64, d0 % 64);
    // SAFETY: AVX2 is available (caller contract); every slice access
    // below is bounds-checked, and each store covers one checked 8-lane
    // sub-slice.
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
        let at = d0 - first;
        for (row, a) in rows[k0..k0 + N].iter_mut().zip(&acc) {
            _mm256_storeu_ps(row[at..at + LANES].as_mut_ptr(), _mm256_and_ps(*a, keep));
        }
    }
}

/// The constants of one Adam step, broadcast to every lane.
struct StepLanes {
    lr: __m256,
    beta1: __m256,
    one_minus_beta1: __m256,
    beta2: __m256,
    one_minus_beta2: __m256,
    eps: __m256,
    weight_decay: __m256,
    bc1: __m256,
    bc2: __m256,
    lo: __m256,
    hi: __m256,
}

/// AVX2 tier of [`fused_step_on`](super::fused_step_on): each word of the
/// chunk is updated and packed 8 coordinates at a time.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fused_step(d: usize, wpr: usize, chunk: FusedChunk<'_>) {
    let FusedChunk {
        words,
        packed,
        latent,
        grad,
        adam,
    } = chunk;
    let s = adam.step;
    let lanes = StepLanes {
        lr: _mm256_set1_ps(s.lr),
        beta1: _mm256_set1_ps(s.beta1),
        one_minus_beta1: _mm256_set1_ps(1.0 - s.beta1),
        beta2: _mm256_set1_ps(s.beta2),
        one_minus_beta2: _mm256_set1_ps(1.0 - s.beta2),
        eps: _mm256_set1_ps(s.eps),
        weight_decay: _mm256_set1_ps(s.weight_decay),
        bc1: _mm256_set1_ps(s.bc1),
        bc2: _mm256_set1_ps(s.bc2),
        lo: _mm256_set1_ps(-s.clip),
        hi: _mm256_set1_ps(s.clip),
    };
    for (out, r) in packed.iter_mut().zip(word_spans(d, wpr, words)) {
        // SAFETY: this function runs with AVX2 enabled.
        *out = unsafe {
            step_word(
                &lanes,
                s,
                &mut latent[r.clone()],
                &grad[r.clone()],
                &mut adam.m[r.clone()],
                &mut adam.v[r],
            )
        };
    }
}

/// Updates up to 64 coordinates and returns their sign bits, as
/// [`step_word_scalar`] does.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into [`fused_step`]).
#[inline(always)]
unsafe fn step_word(
    c: &StepLanes,
    step: AdamStep,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) -> u64 {
    let n = p.len();
    let body = n - n % LANES;
    let mut word = 0u64;
    for j in (0..body).step_by(LANES) {
        let at = j..j + LANES;
        // SAFETY: AVX2 is available (caller contract), and every load and
        // store covers one bounds-checked 8-lane sub-slice.
        unsafe {
            let pj = _mm256_loadu_ps(p[at.clone()].as_ptr());
            let gr = _mm256_loadu_ps(g[at.clone()].as_ptr());
            let mj = _mm256_loadu_ps(m[at.clone()].as_ptr());
            let vj = _mm256_loadu_ps(v[at.clone()].as_ptr());
            // The gradient is the second operand of both, so a NaN passes
            // through as it does `f32::clamp`.
            let gr = _mm256_min_ps(c.hi, _mm256_max_ps(c.lo, gr));
            let gv = _mm256_add_ps(gr, _mm256_mul_ps(c.weight_decay, pj));
            let mj = _mm256_add_ps(
                _mm256_mul_ps(c.beta1, mj),
                _mm256_mul_ps(c.one_minus_beta1, gv),
            );
            let vj = _mm256_add_ps(
                _mm256_mul_ps(c.beta2, vj),
                _mm256_mul_ps(_mm256_mul_ps(c.one_minus_beta2, gv), gv),
            );
            let m_hat = _mm256_div_ps(mj, c.bc1);
            let v_hat = _mm256_div_ps(vj, c.bc2);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), c.eps);
            let pj = _mm256_sub_ps(pj, _mm256_div_ps(_mm256_mul_ps(c.lr, m_hat), denom));
            _mm256_storeu_ps(p[at.clone()].as_mut_ptr(), pj);
            _mm256_storeu_ps(m[at.clone()].as_mut_ptr(), mj);
            _mm256_storeu_ps(v[at].as_mut_ptr(), vj);
            let signs = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(pj, _mm256_setzero_ps()));
            word |= u64::from(signs as u8) << j;
        }
    }
    if body < n {
        let (p, g, m, v) = (&mut p[body..], &g[body..], &mut m[body..], &mut v[body..]);
        word |= step_word_scalar(step, p, g, m, v) << body;
    }
    word
}
